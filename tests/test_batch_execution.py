"""Batch execution: request-level arrays + the vector verification kernel.

With numpy a request is served from :mod:`repro.index.batch` (one array pass
groups, prefilters and cuts every candidate table) and tables that keep many
pairs are verified by :func:`repro.core.joinability.verify_encoded` over
dictionary-encoded rows.  Everything here is differential: against
``tests.helpers.legacy_verify_table`` / ``legacy_discover`` (the verbatim
loops), against the table-at-a-time path of the same executor, and against a
freshly built engine after mutations.  Every end-to-end comparison asserts
that the plan report says the batch path ran — an equivalence suite must not
silently exercise the fallback only.
"""

from __future__ import annotations

import copy
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

np = pytest.importorskip("numpy")

from repro import MateConfig, MateDiscovery, build_index  # noqa: E402
from repro.api import PlannerOptions  # noqa: E402
from repro.api.request import RequestBudget  # noqa: E402
from repro.core import joinability  # noqa: E402
from repro.core.joinability import verify_encoded  # noqa: E402
from repro.core.filters import should_prune_table  # noqa: E402
from repro.datagen import build_workload  # noqa: E402
from repro.datamodel import MISSING, QueryTable, Row, Table, TableCorpus  # noqa: E402
from repro.datamodel import encoding  # noqa: E402
from repro.datamodel.encoding import ENCODER, EncodedKeys  # noqa: E402
from repro.experiments.planner import (  # noqa: E402
    _build_drift_scenario,
    PLANNER_CHECK_EVERY,
    PLANNER_REPLAN_FACTOR,
    PLANNER_SAMPLE_SIZE,
)
from repro.experiments.runner import ExperimentSettings  # noqa: E402
from repro.index import (  # noqa: E402
    IndexMaintainer,
    InvertedIndex,
    group_into_table_blocks,
    prefilter_table_block,
    use_kernel,
)
from repro.index import columnar  # noqa: E402
from repro.index.batch import RequestArrays  # noqa: E402
from repro.ingest import LiveIndex  # noqa: E402
from repro.metrics import DiscoveryCounters  # noqa: E402
from repro.plan import PlanContext, PlanReport, Planner  # noqa: E402
from repro.plan.executor import Executor  # noqa: E402
from repro.sketch import SketchOptions  # noqa: E402
from repro.storage import MappedSegmentIndex, load_segment, write_segment  # noqa: E402

from tests.helpers import (  # noqa: E402
    BUILD_LANES,
    assert_results_byte_identical,
    build_in_lane,
    legacy_discover,
    legacy_verify_table,
)
from tests.test_kernels import VALUES, as_dict, index_cases  # noqa: E402

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=50_000)


@pytest.fixture(autouse=True)
def numpy_kernel():
    """The batch path needs the numpy kernel whatever ``MATE_KERNEL`` says."""
    with use_kernel("numpy"):
        yield


@pytest.fixture()
def every_table_vectorised(monkeypatch):
    """Force the pair constant to 1: every table with a pair takes the kernel."""
    monkeypatch.setattr(joinability, "VECTOR_VERIFY_MIN_PAIRS", 1)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=11, num_queries=2, corpus_scale=0.2)


@pytest.fixture(scope="module")
def engine(workload):
    return MateDiscovery(
        workload.corpus, build_index(workload.corpus, config=CONFIG), config=CONFIG
    )


def stage_volumes(result) -> dict[str, tuple[int, int, int]]:
    return {
        name: (stats.calls, stats.items_in, stats.items_out)
        for name, stats in result.counters.stages.items()
    }


def assert_batch_equals_table_path(engine, query, *, make_kwargs=dict, **kwargs):
    """Run both executor paths; answers, counters and stage volumes agree.

    ``make_kwargs`` builds the per-run keyword arguments that cannot be
    shared between two runs (a budget is a ledger).  Returns the batch run.
    """
    batch = engine.discover(query, **kwargs, **make_kwargs())
    assert batch.plan.execution_path == "batch", batch.plan.table_path_reason
    assert batch.plan.table_path_reason == ""
    with use_kernel("off"):
        table = engine.discover(query, **kwargs, **make_kwargs())
    assert table.plan.execution_path == "table"
    assert table.plan.table_path_reason == "kernel off"
    assert_results_byte_identical(batch, table)
    assert stage_volumes(batch) == stage_volumes(table)
    return batch


def test_a_freshly_built_index_takes_the_batch_path(workload):
    """The bulk build's block-backed index serves packed key buffers, so a
    discover over it is batch-executed and answers what a discover over the
    per-cell loop's index answers."""
    by_lane = {}
    for lane in BUILD_LANES:
        index = build_in_lane(lane, workload.corpus, config=CONFIG)
        engine = MateDiscovery(workload.corpus, index, config=CONFIG)
        by_lane[lane] = engine.discover(workload.queries[0])
        plan = by_lane[lane].plan
        assert plan.execution_path == "batch", plan.table_path_reason
    assert type(index) is MappedSegmentIndex
    assert_results_byte_identical(by_lane["block"], by_lane["loop"])
    assert stage_volumes(by_lane["block"]) == stage_volumes(by_lane["loop"])


# ----------------------------------------------------------------------
# (a) The vector kernel against the verbatim per-pair loop
# ----------------------------------------------------------------------
#: Few values so rows hold a key value in several columns, key tuples repeat
#: a value, and ``MISSING`` turns up in rows and keys; "zz" is in no row.
CELLS = st.sampled_from(["a", "b", "c", MISSING])
KEY_VALUES = st.sampled_from(["a", "b", "c", "zz", MISSING])


@st.composite
def verification_cases(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    num_columns = draw(st.integers(min_value=1, max_value=5))
    rows = draw(
        st.lists(
            st.lists(CELLS, min_size=num_columns, max_size=num_columns),
            min_size=1,
            max_size=6,
        )
    )
    key_tuples = draw(
        st.lists(
            st.tuples(*[KEY_VALUES] * width), min_size=1, max_size=5, unique=True
        )
    )
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(rows) - 1),
                st.integers(min_value=0, max_value=len(key_tuples) - 1),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return rows, key_tuples, pairs


def run_kernel(table: Table, key_tuples, pairs):
    keys = EncodedKeys(key_tuples)
    matrix = ENCODER.matrix(table, keys)
    counters = DiscoveryCounters()
    outcome = verify_encoded(
        matrix,
        np.array([row for row, _ in pairs], dtype=np.intp),
        np.array([key for _, key in pairs], dtype=np.intp),
        keys,
        counters,
    )
    return outcome, counters


class TestVectorKernelDifferential:
    @given(case=verification_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_pair_loop(self, case):
        rows, key_tuples, pairs = case
        table = Table(
            table_id=0,
            name="t",
            columns=[f"c{i}" for i in range(len(rows[0]))],
            rows=rows,
        )
        (score, mapping, verified), counters = run_kernel(table, key_tuples, pairs)
        expected = legacy_verify_table(
            table.rows, [(row, key_tuples[key]) for row, key in pairs]
        )
        assert (
            score,
            mapping,
            verified,
            counters.true_positive_rows,
            counters.false_positive_rows,
            counters.value_comparisons,
        ) == expected
        assert counters.rows_passed_filter == expected[3] + expected[4]

    def test_ties_go_to_the_largest_mapping(self):
        table = Table(0, "t", ["x", "y", "z"], rows=[["a", "a", "b"]])
        outcome, _ = run_kernel(table, [("a", "b")], [(0, 0)])
        assert outcome == (1, (1, 2), 1)

    def test_repeated_key_value_needs_two_columns(self):
        table = Table(0, "t", ["x", "y"], rows=[["a", "b"], ["a", "a"]])
        outcome, counters = run_kernel(table, [("a", "a")], [(0, 0), (1, 0)])
        assert outcome == (1, (1, 0), 1)
        assert (counters.true_positive_rows, counters.false_positive_rows) == (1, 1)

    def test_codes_that_could_overflow_are_left_to_the_loop(self):
        table = Table(0, "t", [f"c{i}" for i in range(40)], rows=[["a"] * 40])
        keys = EncodedKeys([("a",) * 12])
        matrix = ENCODER.matrix(table, keys)
        counters = DiscoveryCounters()
        zero = np.zeros(1, dtype=np.intp)
        assert verify_encoded(matrix, zero, zero, keys, counters) is None
        assert counters.value_comparisons == 0


# ----------------------------------------------------------------------
# (b) The request-level prefilter
# ----------------------------------------------------------------------
def one_value_index(super_keys: list[int]) -> InvertedIndex:
    """Table 0 holding value "v" once per row, with the given row super keys."""
    index = InvertedIndex(hash_size=16, layout="columnar")
    for row_index, super_key in enumerate(super_keys):
        index.add_posting("v", 0, 0, row_index)
        index.set_super_key(0, row_index, super_key)
    return index


class TestRequestArrays:
    @given(case=index_cases())
    @settings(max_examples=120, deadline=None)
    def test_cut_matches_the_table_at_a_time_splice(self, case):
        """Same postings, same bitmaps: arrays vs ``prefilter_table_block``."""
        hash_size, postings, key_map, length_shift, bound = case
        index = InvertedIndex(hash_size=hash_size, layout="columnar")
        for value, table_id, row_index, key in postings:
            index.add_posting(value, table_id, 0, row_index)
            index.set_super_key(table_id, row_index, key)
        blocks = index.fetch_batch(VALUES)
        arrays = RequestArrays(blocks, key_map, length_shift)
        grouped = group_into_table_blocks(blocks)
        candidates = arrays.candidates(None)
        assert [
            (table_id, len(span)) for table_id, span in candidates
        ] == sorted(
            ((table_id, len(block)) for table_id, block in grouped.items()),
            key=lambda entry: (-entry[1], entry[0]),
        )
        for table_id, span in candidates:
            table_block = grouped[table_id]
            run_cov = []
            for source, fetch_start, table_start, count in table_block.cov_sources:
                entries = key_map.get(source.value, ())
                if entries:
                    per_level = source.query_coverage(entries, length_shift, "numpy")
                    run_cov.append(
                        (table_start, fetch_start, count, entries, per_level)
                    )
            expected = as_dict(
                prefilter_table_block(
                    row_indexes=table_block.row_indexes,
                    run_cov=run_cov,
                    posting_count=len(table_block),
                    min_joinability=bound,
                )
            )
            rows_checked, checks, hits, abandoned, surviving = arrays.cut(
                span, bound
            )
            assert {
                "surviving": list(surviving),
                "rows_checked": rows_checked,
                "superkey_checks": checks,
                "short_circuit_hits": hits,
                "abandoned": abandoned,
            } == {key: expected[key] for key in expected if key != "rows_matched"}

    def test_cut_off_on_the_last_row_is_not_an_abandon(self):
        """Rule 2 is asked *before* each row, never after the last one."""
        # Key 1 is covered by super key 1, not by 0: rows match, miss, match,
        # miss.  With j_k = 2 the second miss — the last row — exhausts the
        # deficit, but no row is left to skip.
        index = one_value_index([1, 0, 1, 0])
        arrays = RequestArrays(index.fetch_batch(["v"]), {"v": [(("k",), 1)]}, None)
        [(table_id, span)] = arrays.candidates(None)
        rows_checked, checks, _, abandoned, surviving = arrays.cut(span, 2)
        assert (table_id, rows_checked, checks, abandoned) == (0, 4, 4, False)
        assert list(surviving) == [(0, ("k",)), (2, ("k",))]
        # One more unit of j_k and the first miss already decides it: the
        # scan stops in front of row 2.
        rows_checked, checks, _, abandoned, surviving = arrays.cut(span, 3)
        assert (rows_checked, checks, abandoned) == (2, 2, True)
        assert list(surviving) == [(0, ("k",))]
        # Rule 2 not armed: the whole table.
        assert arrays.cut(span, None)[:4] == (4, 4, 0, False)

    def test_sort_is_stable_across_probe_values(self):
        """Table order is probe order, then posting order (TableBlock order)."""
        index = InvertedIndex(hash_size=16, layout="columnar")
        for value, table_id, row_index in [
            ("w", 1, 5), ("v", 1, 9), ("w", 0, 2), ("v", 1, 3), ("v", 0, 7),
        ]:
            index.add_posting(value, table_id, 0, row_index)
            index.set_super_key(table_id, row_index, 0)
        blocks = index.fetch_batch(["v", "w"])
        arrays = RequestArrays(blocks, {}, None)
        grouped = group_into_table_blocks(blocks)
        for table_id, span in arrays.candidates(None):
            assert (
                arrays.row_indexes[span.start : span.stop].tolist()
                == grouped[table_id].row_indexes
            )
        assert [table_id for table_id, _ in arrays.candidates({0})] == [0]

    def test_no_postings_no_candidates(self):
        arrays = RequestArrays([], {}, None)
        assert arrays.candidates(None) == []
        assert arrays.cut(range(0), None)[:4] == (0, 0, 0, False)


def shared_seed_query(workload) -> QueryTable:
    """A query whose seed values map to several key entries each."""
    source = workload.queries[0]
    first, second = source.key_columns[:2]
    table = source.table
    a, b = table.column_index(first), table.column_index(second)
    rows = [[row[a], row[b]] for row in table.rows]
    # Every seed value once more, with another row's partner: two key
    # tuples share each seed value whichever column seeds the run.
    rows += [[row[0], other[1]] for row, other in zip(rows, rows[1:] + rows[:1])]
    return QueryTable(
        table=Table(table_id=990, name="q2", columns=[first, second], rows=rows),
        key_columns=[first, second],
    )


class TestDiscoverDifferential:
    def test_matches_the_legacy_loop(self, engine, workload):
        for query in workload.queries:
            result = engine.discover(query)
            assert result.plan.execution_path == "batch"
            assert_results_byte_identical(result, legacy_discover(engine, query))
            assert_batch_equals_table_path(engine, query)

    def test_every_table_through_the_vector_kernel(
        self, engine, workload, every_table_vectorised
    ):
        for query in workload.queries:
            result = assert_batch_equals_table_path(engine, query)
            assert_results_byte_identical(result, legacy_discover(engine, query))

    def test_values_mapping_to_several_key_entries(
        self, engine, workload, every_table_vectorised
    ):
        query = shared_seed_query(workload)
        result = assert_batch_equals_table_path(engine, query)
        assert_results_byte_identical(result, legacy_discover(engine, query))
        key_map = engine._build_key_super_key_map(query, result.plan.seed_column)
        assert max(len(entries) for entries in key_map.values()) > 1

    @pytest.mark.parametrize("limit", [0, 1, 3])
    def test_fetch_budget(self, engine, workload, limit):
        query = workload.queries[0]
        result = assert_batch_equals_table_path(
            engine,
            query,
            make_kwargs=lambda: {"budget": RequestBudget(max_pl_fetches=limit)},
        )
        assert not result.complete
        assert_results_byte_identical(
            result,
            legacy_discover(
                engine, query, budget=RequestBudget(max_pl_fetches=limit)
            ),
        )

    def test_deadline_that_expires_mid_loop(self, engine, workload):
        query = workload.queries[0]

        def make_kwargs():
            now = [0.0]

            def on_snapshot(ranked):
                now[0] = 2.0  # expire after the first accepted table

            return {
                "budget": RequestBudget(deadline_seconds=1.0, clock=lambda: now[0]),
                "on_snapshot": on_snapshot,
            }

        result = assert_batch_equals_table_path(
            engine, query, make_kwargs=make_kwargs
        )
        assert not result.complete and result.counters.deadline_expired
        assert result.counters.tables_evaluated == 1
        assert_results_byte_identical(
            result, legacy_discover(engine, query, **make_kwargs())
        )

    def test_deadline_expired_by_the_fetch_skips_the_prefilter(
        self, engine, workload, monkeypatch
    ):
        """The whole-request prefilter runs inside the first ``cut``, behind
        a deadline check that passed: a deadline overshoots by one such pass
        at most, and a request already late after its fetch never pays it."""
        query = workload.queries[0]

        def make_kwargs():
            reads = iter([0.0, 0.0])  # the ledger's start, the pre-fetch check

            return {
                "budget": RequestBudget(
                    deadline_seconds=1.0, clock=lambda: next(reads, 2.0)
                )
            }

        monkeypatch.setattr(
            RequestArrays,
            "_prefilter",
            lambda self: pytest.fail("prefiltered past the deadline"),
        )
        result = assert_batch_equals_table_path(
            engine, query, make_kwargs=make_kwargs
        )
        assert result.counters.deadline_expired
        assert result.counters.candidate_tables > 0
        assert result.counters.tables_evaluated == 0

    def test_streaming_snapshots(self, engine, workload):
        query = workload.queries[0]
        seen: list[list] = []
        oracle: list[list] = []
        result = engine.discover(query, on_snapshot=seen.append)
        legacy_discover(engine, query, on_snapshot=oracle.append)
        assert result.plan.execution_path == "batch"
        assert seen == oracle and seen[-1] == result.result_tuples()

    def test_adaptive_replanning_that_discards_a_seed(self):
        corpus, query = _build_drift_scenario(ExperimentSettings(corpus_scale=0.3))
        index = build_index(corpus, config=CONFIG)
        engine = MateDiscovery(corpus, index, config=CONFIG)
        options = PlannerOptions(
            mode="adaptive",
            sample_size=PLANNER_SAMPLE_SIZE,
            replan_check_every=PLANNER_CHECK_EVERY,
            replan_factor=PLANNER_REPLAN_FACTOR,
        )
        result = assert_batch_equals_table_path(engine, query, planner=options)
        assert len(result.plan.replans) == 1
        assert result.plan.discarded_postings > 0
        assert result.result_tuples() == engine.discover(query).result_tuples()

    def test_sketch_tier_restricts_the_candidates(self, engine, workload):
        query = workload.queries[0]
        exhaustive = engine.discover(query)
        result = assert_batch_equals_table_path(
            engine,
            query,
            planner=PlannerOptions(mode="sketch"),
            sketch=SketchOptions(max_candidates=2),
        )
        assert result.counters.candidate_tables <= 2
        assert result.counters.candidate_tables < exhaustive.counters.candidate_tables

    def test_live_index_with_tombstones_and_merged_blocks(self, workload):
        tables = list(workload.corpus)
        live = LiveIndex(config=CONFIG)
        corpus = TableCorpus(name="live")
        for position, table in enumerate(tables):
            corpus.add_table(table)
            live.add_table(table)
            if position in (len(tables) // 3, 2 * len(tables) // 3):
                live.seal()  # two segments + the write buffer
        engine = MateDiscovery(corpus, live, config=CONFIG)
        query = workload.queries[0]
        before = engine.discover(query)
        # Tombstone a sealed table that was in the answer.
        victim = before.tables[0].table_id
        live.remove_table(victim)
        values = engine.probe_values(query)
        assert any(
            isinstance(block.table_ids, list) for block in live.fetch_batch(values)
        ), "no probe value spans components: the merged-block case is not covered"
        result = assert_batch_equals_table_path(engine, query)
        assert victim not in result.table_ids()
        assert_results_byte_identical(result, legacy_discover(engine, query))

    def test_mmap_segment(self, workload, tmp_path):
        index = build_index(workload.corpus, config=CONFIG)
        path = write_segment(index, tmp_path / "corpus.seg", fsync=False)
        mapped = load_segment(path)
        try:
            engine = MateDiscovery(workload.corpus, mapped, config=CONFIG)
            for query in workload.queries:
                result = assert_batch_equals_table_path(engine, query)
                assert_results_byte_identical(result, legacy_discover(engine, query))
        finally:
            mapped.close()


class TestExecutionPathReport:
    def test_reasons_for_the_table_path(self, workload):
        query = workload.queries[0]
        index = build_index(workload.corpus, config=CONFIG)

        def report(engine):
            return engine.discover(query).plan

        engine = MateDiscovery(workload.corpus, index, config=CONFIG)
        assert report(engine).as_dict()["execution_path"] == "batch"
        with use_kernel("off"):
            assert report(engine).table_path_reason == "kernel off"
        with use_kernel("fallback"):
            assert report(engine).table_path_reason == "kernel fallback"
        scr = MateDiscovery(
            workload.corpus, index, config=CONFIG, row_filter_mode="none"
        )
        assert report(scr).table_path_reason == "row filter none"
        oracle = MateDiscovery(
            workload.corpus, index, config=CONFIG, row_filter_mode="oracle"
        )
        assert report(oracle).table_path_reason == "row filter oracle"

        legacy_config = MateConfig(
            hash_size=128, k=5, expected_unique_values=50_000, index_layout="legacy"
        )
        legacy = MateDiscovery(
            workload.corpus,
            build_index(workload.corpus, config=legacy_config),
            config=legacy_config,
        )
        plan = report(legacy)
        assert plan.execution_path == "table"
        assert plan.table_path_reason.startswith("unpacked block for value ")
        assert plan.as_dict()["table_path_reason"] == plan.table_path_reason

        class FetchOnly:
            """An index with only the classic per-item surface."""

            def __init__(self, inner):
                self.inner = inner

            def __getattr__(self, name):
                if name == "fetch_batch":
                    raise AttributeError(name)
                return getattr(self.inner, name)

        bare = MateDiscovery(workload.corpus, FetchOnly(index), config=CONFIG)
        assert report(bare).table_path_reason == "index without fetch_batch"
        assert_results_byte_identical(
            bare.discover(query), legacy_discover(engine, query)
        )

    def test_path_is_not_a_counter(self, engine, workload):
        result = engine.discover(workload.queries[0])
        assert "execution_path" not in result.counters.as_dict()
        assert "execution_path" not in result.counters.extra


# ----------------------------------------------------------------------
# Satellite: the coverage memo of a cached fetch block is bounded
# ----------------------------------------------------------------------
class TestCoverageMemoBound:
    def test_many_distinct_keys_against_one_block(self):
        index = one_value_index([key % 7 for key in range(40)])
        [block] = index.fetch_batch(["v"])
        bound = columnar.COVERAGE_MEMO_ENTRIES
        for key in range(4 * bound):
            entries = [((f"k{key}",), key % 8), ((f"l{key}",), (key + 3) % 8)]
            arrays = RequestArrays([block], {"v": entries}, 4)
            survivors = list(arrays.cut(range(0, 40), None)[4])
            assert len(block._cov_cache) <= bound
            assert survivors == [
                (row, key_tuple)
                for row in range(40)
                for key_tuple, key_super_key in entries
                if key_super_key & ~(row % 7) == 0
            ]
        # The entries of the request in flight are kept together.
        assert {(key_super_key, 4, "numpy") for _, key_super_key in entries} <= set(
            block._cov_cache
        )

    def test_one_request_larger_than_the_bound(self):
        index = one_value_index([3, 1])
        [block] = index.fetch_batch(["v"])
        entries = [
            ((f"k{key}",), key) for key in range(2 * columnar.COVERAGE_MEMO_ENTRIES)
        ]
        per_level = block.query_coverage(entries, None, "numpy")
        assert len(per_level) == len(entries)
        assert len(block._cov_cache) <= columnar.COVERAGE_MEMO_ENTRIES
        assert [cov for cov, _ in per_level[:4]] == [
            b"\x01\x01", b"\x01\x01", b"\x01\x00", b"\x01\x00"
        ]


# ----------------------------------------------------------------------
# (c) The encoded-table cache: invalidation, eviction, threads
# ----------------------------------------------------------------------
COLUMNS = ["name", "city", "team"]


def small_corpus() -> TableCorpus:
    corpus = TableCorpus(name="edit")
    corpus.add_table(
        Table(
            table_id=0,
            name="people",
            columns=list(COLUMNS),
            rows=[
                ["ada", "nowhere", "red"],
                ["alan", "paris", "blue"],
                ["grace", "rome", "red"],
                ["edsger", "austin", "blue"],
            ],
        )
    )
    corpus.add_table(
        Table(
            table_id=1,
            name="more",
            columns=list(COLUMNS),
            rows=[["ada", "berlin", "red"], ["kurt", "vienna", "red"]],
        )
    )
    return corpus


def small_query() -> QueryTable:
    return QueryTable(
        table=Table(
            table_id=99,
            name="q",
            columns=["n", "c"],
            rows=[
                ["ada", "berlin"], ["alan", "paris"], ["grace", "rome"],
                ["edsger", "austin"], ["linus", "helsinki"],
            ],
        ),
        key_columns=["n", "c"],
    )


def fresh_answer(corpus: TableCorpus, query: QueryTable):
    """What an engine built from scratch over a copy of ``corpus`` answers."""
    clone = copy.deepcopy(corpus)
    engine = MateDiscovery(clone, build_index(clone, config=CONFIG), config=CONFIG)
    return engine.discover(query)


def answer(result):
    return [
        (table.table_id, table.joinability, table.column_mapping)
        for table in result.tables
    ]


@pytest.mark.usefixtures("every_table_vectorised")
class TestEncodedTableInvalidation:
    @pytest.fixture(params=BUILD_LANES)
    def edited(self, request):
        """An engine over an index from either lane of the bulk build (the
        block-backed one thaws at the maintainer's first edit)."""
        corpus = small_corpus()
        index = build_in_lane(request.param, corpus, config=CONFIG)
        engine = MateDiscovery(corpus, index, config=CONFIG)
        maintainer = IndexMaintainer(corpus, index, engine.super_key_generator)
        query = small_query()
        # Encode every table before the edit, so a stale matrix would show.
        assert answer(engine.discover(query)) == [(0, 3, (0, 1)), (1, 1, (0, 1))]
        return corpus, engine, maintainer, query

    def check(self, corpus, engine, query, expected_top):
        result = engine.discover(query)
        assert result.plan.execution_path == "batch"
        assert answer(result) == answer(fresh_answer(corpus, query))
        assert answer(result)[0] == expected_top

    def test_update_cell(self, edited):
        corpus, engine, maintainer, query = edited
        maintainer.update_cell(0, 0, 1, "berlin")
        self.check(corpus, engine, query, (0, 4, (0, 1)))

    def test_insert_row(self, edited):
        corpus, engine, maintainer, query = edited
        maintainer.insert_row(0, ["linus", "helsinki", "red"])
        self.check(corpus, engine, query, (0, 4, (0, 1)))

    def test_append_row(self, edited):
        table = edited[0].get_table(0)
        assert ENCODER.matrix(table, EncodedKeys([("ada",)])).shape == (4, 3)
        table.append_row(["linus", "helsinki", "red"])
        keys = EncodedKeys([("linus",)])
        matrix = ENCODER.matrix(table, keys)
        assert matrix.shape == (5, 3) and matrix[4, 0] == keys.ids[0, 0]

    def test_delete_row(self, edited):
        corpus, engine, maintainer, query = edited
        maintainer.delete_row(0, 0)
        self.check(corpus, engine, query, (0, 3, (0, 1)))

    def test_insert_column(self, edited):
        corpus, engine, maintainer, query = edited
        maintainer.insert_column(0, "town", ["berlin", "x", "y", "z"])
        self.check(corpus, engine, query, (0, 3, (0, 1)))
        assert engine.discover(query).tables[0].joinability == 3
        maintainer.update_cell(0, 1, 1, "nowhere")
        maintainer.update_cell(0, 1, 3, "paris")
        self.check(corpus, engine, query, (0, 2, (0, 3)))

    def test_delete_column(self, edited):
        corpus, engine, maintainer, query = edited
        maintainer.delete_column(0, "name")
        maintainer.insert_column(0, "who", ["ada", "alan", "grace", "edsger"])
        self.check(corpus, engine, query, (0, 3, (2, 0)))

    def test_remove_and_re_add_a_table_id(self, edited):
        corpus, engine, maintainer, query = edited
        table = corpus.get_table(0)
        maintainer.delete_table(0)
        # The caller owns the removed table and edits it in place.
        table.rows[0] = Row(["ada", "berlin", "red"])
        maintainer.insert_table(table)
        self.check(corpus, engine, query, (0, 4, (0, 1)))
        maintainer.delete_table(0)
        maintainer.insert_table(
            Table(0, "other", list(COLUMNS), rows=[["alan", "paris", "red"]])
        )
        self.check(corpus, engine, query, (0, 1, (0, 1)))

    def test_collected_tables_leave_the_cache(self):
        table = Table(7, "t", ["x"], rows=[["a"]])
        ENCODER.matrix(table, EncodedKeys([("a",)]))
        key = id(table)
        assert key in ENCODER._tables
        del table
        assert key not in ENCODER._tables


@pytest.mark.usefixtures("every_table_vectorised")
class TestValueDictionaryBound:
    def test_eviction_between_two_requests(self, engine, workload, monkeypatch):
        query = workload.queries[0]
        first = engine.discover(query)
        assert ENCODER._tables
        generation = ENCODER._generation
        # The next request finds the dictionary full the first time it
        # encodes, and starts over.
        monkeypatch.setattr(encoding, "MAX_VALUE_IDS", len(ENCODER))
        assert_results_byte_identical(engine.discover(query), first)
        assert ENCODER._generation > generation

    def test_eviction_inside_a_request(self, engine, workload, monkeypatch):
        """A bound this small drops the dictionary at every table: a request
        keeps re-encoding its keys instead of mixing two generations."""
        query = workload.queries[0]
        expected = engine.discover(query)
        monkeypatch.setattr(encoding, "MAX_VALUE_IDS", 1)
        generation = ENCODER._generation
        assert_results_byte_identical(engine.discover(query), expected)
        assert ENCODER._generation > generation + 1

    def test_keys_follow_the_generation(self, monkeypatch):
        table = Table(3, "t", ["x", "y"], rows=[["a", "b"]])
        keys = EncodedKeys([("b", "never seen"), (MISSING, "a")])
        matrix = ENCODER.matrix(table, keys)
        assert matrix[0, 1] == keys.ids[0, 0]
        assert keys.ids[0, 1] not in matrix and keys.ids[0, 1] >= 0
        assert keys.ids[1, 0] == encoding.NO_MATCH_ID
        # Another table meets a full dictionary: everything is dropped.
        monkeypatch.setattr(encoding, "MAX_VALUE_IDS", 1)
        other = Table(4, "u", ["x"], rows=[["c"]])
        ENCODER.matrix(other, EncodedKeys([("c",)]))
        assert id(table) not in ENCODER._tables
        assert keys.generation != ENCODER._generation
        stale = keys.ids.copy()
        matrix = ENCODER.matrix(table, keys)
        assert keys.generation == ENCODER._generation
        assert matrix[0, 1] == keys.ids[0, 0]
        assert stale.shape == keys.ids.shape

    def test_two_threads_on_one_engine(self, engine, workload, monkeypatch):
        """Concurrent requests share the dictionary; a small bound makes them
        evict under each other's feet.  Answers must not change."""
        monkeypatch.setattr(encoding, "MAX_VALUE_IDS", 200)
        expected = [engine.discover(query) for query in workload.queries]
        failures: list[BaseException] = []

        def worker():
            try:
                for _ in range(8):
                    for query, reference in zip(workload.queries, expected):
                        assert_results_byte_identical(
                            engine.discover(query), reference
                        )
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]


# ----------------------------------------------------------------------
# (d) A suspended request does not pin the index's posting columns
# ----------------------------------------------------------------------
class TestNoBufferPinned:
    def test_add_posting_between_stages(self, workload):
        corpus = workload.corpus
        index = build_index(corpus, config=CONFIG)
        engine = MateDiscovery(corpus, index, config=CONFIG)
        query = workload.queries[0]
        expected = engine.discover(query)
        probe = engine.probe_values(query)[0]
        table = next(iter(corpus))

        def write():
            # ``array`` refuses to grow while a buffer export is alive.
            index.add_posting(probe, table.table_id, 0, 0)

        executor = Executor(engine)
        plan = Planner(engine).plan(query)
        context = PlanContext(
            engine=engine,
            query=query,
            k=CONFIG.k,
            plan=plan,
            options=executor.options,
            report=PlanReport(plan=plan, seed_column=plan.seed.column),
        )
        executor.candidate_generation.run(context)
        assert context.report.execution_path == "batch"
        write()
        for table_id, span in context.candidates:
            if should_prune_table(len(span), context.topk):
                break
            context.set_current(table_id, span)
            executor.superkey_prefilter.run(context)
            write()
            executor.row_verification.run(context)
            write()
            executor.topk_maintenance.run(context)
        # The run answers from the postings it fetched, whatever came later.
        assert context.topk.result_tuples() == expected.result_tuples()
