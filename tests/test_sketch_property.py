"""Property-based sketch-tier equivalence (the plan-equivalence CI job).

Three properties over arbitrary corpora and queries:

* planner mode ``"sketch"`` with the exhaustive defaults (``threshold=0``,
  no candidate cap) is *byte-identical* to the exact engine — tables,
  mappings, names, completeness, and every counter except the per-stage
  breakdown (the sketch pipeline adds its ``sketch_prune`` stage);
* the numpy signature pass is bit-identical to the stdlib loop
  (``tests/helpers.py::legacy_minhash_signature``) on arbitrary value sets
  (the persisted sketch files depend on it);
* with a real threshold the prune never *invents* results: every reported
  table carries its exact joinability score (the sketch tier only shrinks
  the candidate universe; verification stays exact).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import MateConfig, MateDiscovery, build_index
from repro.api import PlannerOptions
from repro.core import top_k_by_exact_joinability
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.sketch import SketchOptions, minhash_signature, permutation_params
from repro.sketch.minhash import hash_value

from tests.helpers import legacy_minhash_signature

#: Small vocabulary so that overlaps actually happen.
VOCABULARY = ["ada", "alan", "grace", "berlin", "paris", "rome", "us", "uk", "de"]

values = st.sampled_from(VOCABULARY)

#: Planner mode "sketch" with the exhaustive defaults: the prune stage runs
#: but passes every table through.
EXHAUSTIVE_SKETCH = PlannerOptions(mode="sketch")


def corpus_and_query(draw) -> tuple[TableCorpus, QueryTable]:
    corpus = TableCorpus(name="prop")
    num_tables = draw(st.integers(min_value=1, max_value=5))
    for table_id in range(num_tables):
        rows = draw(
            st.lists(
                st.lists(values, min_size=3, max_size=3),
                min_size=1,
                max_size=6,
            )
        )
        corpus.add_table(
            Table(table_id=table_id, name=f"t{table_id}", columns=["a", "b", "c"],
                  rows=rows)
        )
    query_rows = draw(
        st.lists(
            st.lists(values, min_size=2, max_size=2), min_size=1, max_size=6
        )
    )
    query = QueryTable(
        table=Table(table_id=900, name="q", columns=["x", "y"], rows=query_rows),
        key_columns=["x", "y"],
    )
    return corpus, query


def build_engine(corpus: TableCorpus) -> MateDiscovery:
    config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
    return MateDiscovery(corpus, build_index(corpus, config=config), config=config)


def assert_identical_modulo_stages(result, oracle) -> None:
    """Byte-identity except wall clock and the per-stage breakdown."""
    assert result.complete == oracle.complete
    assert [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in result.tables
    ] == [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in oracle.tables
    ]
    mine = result.counters.as_dict()
    theirs = oracle.counters.as_dict()
    for volatile in ("runtime_seconds", "stages"):
        mine.pop(volatile, None)
        theirs.pop(volatile, None)
    assert mine == theirs


class TestSketchEquivalenceProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_sketch_is_byte_identical_to_exact(self, data):
        corpus, query = corpus_and_query(data.draw)
        engine = build_engine(corpus)
        exact = engine.discover(query)
        exhaustive = engine.discover(
            query, planner=EXHAUSTIVE_SKETCH, sketch=SketchOptions()
        )
        assert_identical_modulo_stages(exhaustive, exact)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_pruned_sketch_never_invents_results(self, data):
        corpus, query = corpus_and_query(data.draw)
        engine = build_engine(corpus)
        threshold = data.draw(
            st.sampled_from([0.1, 0.3, 0.5, 0.8])
        )
        result = engine.discover(
            query,
            planner=EXHAUSTIVE_SKETCH,
            sketch=SketchOptions(threshold=threshold),
        )
        truth = dict(
            top_k_by_exact_joinability(query, corpus, k=len(corpus))
        )
        for table_id, joinability in result.result_tuples():
            assert truth.get(table_id, 0) == joinability


@given(
    value_set=st.sets(st.text(min_size=0, max_size=12), min_size=0, max_size=40),
    num_perm=st.sampled_from([16, 64, 128]),
    seed=st.integers(min_value=1, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_signatures_equal_the_stdlib_loop(value_set, num_perm, seed):
    params = permutation_params(num_perm, seed)
    hashes = sorted({hash_value(value) for value in value_set})
    assert minhash_signature(value_set, *params) == legacy_minhash_signature(
        hashes, *params
    )
