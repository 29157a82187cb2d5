"""Property-based plan equivalence (the plan-equivalence CI job's core).

Two properties over arbitrary corpora, queries, and budgets:

* the executor's top-k is *byte-identical* to the verbatim pre-refactor
  loop (:func:`tests.helpers.legacy_discover`) — tables, mappings, names,
  completeness, and every counter — for MATE and for the SCR baseline
  (row filter ``none``) alike;
* ``cost`` mode seeds from the key column whose probe values hold the
  fewest postings, counted exactly, fetches exactly that many, and answers
  what selector mode answers, with tie order free at the cut-off — MATE's
  exact verification makes the reported scores independent of the seed
  column.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import MateConfig, MateDiscovery, build_index
from repro.api import PlannerOptions
from repro.api.request import RequestBudget
from repro.core import top_k_by_exact_joinability
from repro.core.column_selection import probed_postings
from repro.baselines import ScrDiscovery
from repro.datamodel import QueryTable, Table, TableCorpus

from tests.helpers import (
    assert_results_byte_identical,
    assert_topk_equivalent,
    legacy_discover,
)

#: Small vocabulary so that overlaps actually happen.
VOCABULARY = ["ada", "alan", "grace", "berlin", "paris", "rome", "us", "uk", "de"]

values = st.sampled_from(VOCABULARY)

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


def build_engine(corpus: TableCorpus, engine_class=MateDiscovery) -> MateDiscovery:
    config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
    return engine_class(corpus, build_index(corpus, config=config), config=config)


class TestPlanEquivalenceProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_executor_is_byte_identical_to_legacy_loop(self, data):
        corpus, query = corpus_and_query(data.draw)
        engine = build_engine(corpus)
        limit = data.draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=6))
        )
        budget = None if limit is None else RequestBudget(max_pl_fetches=limit)
        oracle_budget = (
            None if limit is None else RequestBudget(max_pl_fetches=limit)
        )
        assert_results_byte_identical(
            engine.discover(query, budget=budget),
            legacy_discover(engine, query, budget=oracle_budget),
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_scr_is_byte_identical_to_legacy_loop(self, data):
        """SCR answers and charges what the per-row loop does."""
        corpus, query = corpus_and_query(data.draw)
        engine = build_engine(corpus, ScrDiscovery)
        assert_results_byte_identical(
            engine.discover(query), legacy_discover(engine, query)
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cost_mode_seeds_the_fewest_probed_postings(self, data):
        corpus, query = corpus_and_query(data.draw)
        engine = build_engine(corpus)
        result = engine.discover(query, planner=PlannerOptions(mode="cost"))
        counts = probed_postings(query, engine.index)
        seed = result.plan.plan.seed
        assert (seed.probe_count, seed.postings) == counts[seed.column]
        assert seed.postings == min(postings for _, postings in counts.values())
        assert result.counters.pl_items_fetched == seed.postings
        selector = engine.discover(query)
        assert_topk_equivalent(result.result_tuples(), selector.result_tuples())
        truth = top_k_by_exact_joinability(query, corpus, k=engine.config.k)
        assert_topk_equivalent(result.result_tuples(), truth)
