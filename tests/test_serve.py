"""Tests for the process-pool serving backend (repro.serve).

The load-bearing contract here is byte-identity: the process pool must
return exactly the top-k the in-process engines return — same tables, same
joinability, same column mappings, same order — for any shard count, with
or without a budget.  Everything else (crash handling, lifecycle)
rides on top of that.

Worker pools are expensive to start, so equivalence tests share
module-scoped pools keyed by shard count; lifecycle/crash tests that must
break a pool build their own tiny one.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DiscoveryRequest, DiscoverySession, RequestBudget
from repro.config import MateConfig
from repro.core import MateDiscovery, ShardedMateDiscovery
from repro.datagen import build_workload
from repro.datamodel import QueryTable, Table
from repro.exceptions import ConfigurationError, DiscoveryError
from repro.index import build_index
from repro.serve import ProcessShardPool, ServeConfig, split_budget
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolStats,
    ShardError,
    ShardQuery,
    Shutdown,
    WorkerReady,
)
from repro.core.parallel import merge_discovery_results
from repro.plan import PlannerOptions
from repro.sketch import SketchOptions
from repro.storage import load_segment, write_segment
from tests.helpers import assert_blocks_equal

CONFIG = MateConfig(expected_unique_values=100_000, k=5)
SHARD_COUNTS = (1, 2, 3)


def topk_tuples(result):
    """The byte-identity projection: everything except timing."""
    return [
        (t.table_id, t.joinability, tuple(t.column_mapping))
        for t in result.tables
    ]


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=17, num_queries=2, corpus_scale=0.3)


def make_mate(corpus, config=CONFIG):
    index = build_index(corpus, config=config, hash_function_name="xash")
    return MateDiscovery(corpus, index, config=config)


@pytest.fixture(scope="module")
def reference(workload):
    """Single-process MateDiscovery top-k per query — the ground truth."""
    engine = make_mate(workload.corpus)
    return [topk_tuples(engine.discover(q, k=CONFIG.k)) for q in workload.queries]


@pytest.fixture(scope="module")
def pools(workload):
    """One process pool per shard count, started lazily, closed at teardown."""
    cache: dict[int, ProcessShardPool] = {}

    def get(num_shards: int) -> ProcessShardPool:
        if num_shards not in cache:
            cache[num_shards] = ProcessShardPool(
                workload.corpus,
                config=CONFIG,
                hash_function_name="xash",
                serve_config=ServeConfig(num_shards=num_shards),
            )
        return cache[num_shards]

    yield get
    for pool in cache.values():
        pool.close()


@pytest.fixture()
def tiny_query_corpus(running_example_corpus):
    return running_example_corpus


class TestProtocol:
    def make_query(self):
        table = Table(
            table_id=0,
            name="q",
            columns=["a", "b"],
            rows=[["x", "y"], ["z", "w"]],
        )
        return QueryTable(table=table, key_columns=["a"])

    def test_messages_pickle_round_trip(self):
        query = self.make_query()
        messages = [
            WorkerReady(
                shard_index=2,
                pid=1234,
                protocol_version=PROTOCOL_VERSION,
                num_tables=10,
                num_postings=99,
            ),
            ShardQuery(
                task_id=7,
                query=query,
                k=5,
                max_pl_fetches=12,
                deadline_seconds=1.5,
            ),
            ShardError(
                task_id=7, shard_index=2, kind="MateError", message="boom"
            ),
            Shutdown(reason="drain"),
        ]
        for message in messages:
            clone = pickle.loads(pickle.dumps(message))
            assert clone == message or isinstance(clone, ShardQuery)

    def test_shard_query_payload_survives_pickle(self):
        query = self.make_query()
        message = ShardQuery(
            task_id=1, query=query, k=3, max_pl_fetches=None, deadline_seconds=None
        )
        clone = pickle.loads(pickle.dumps(message))
        assert clone.task_id == 1
        assert clone.query.key_columns == query.key_columns
        assert clone.query.table.rows == query.table.rows

    def test_protocol_stats_as_dict(self):
        stats = ProtocolStats()
        stats.sent += 3
        stats.received += 2
        assert stats.as_dict() == {"sent": 3, "received": 2, "errors": 0}


class TestSplitBudget:
    def test_remainder_goes_to_lowest_shards(self):
        assert split_budget(10, 3) == [4, 3, 3]
        assert split_budget(2, 4) == [1, 1, 0, 0]
        assert split_budget(0, 2) == [0, 0]

    def test_none_stays_none(self):
        assert split_budget(None, 2) == [None, None]

    def test_shares_sum_to_total(self):
        for total in range(0, 40):
            for shards in range(1, 7):
                shares = split_budget(total, shards)
                assert sum(shares) == total
                assert max(shares) - min(shares) <= 1

    def test_invalid_inputs(self):
        with pytest.raises(DiscoveryError):
            split_budget(5, 0)
        with pytest.raises(DiscoveryError):
            split_budget(-1, 2)


class TestServeConfigValidation:
    def test_rejects_nonpositive_shards(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(num_shards=0)


class TestPoolEquivalence:
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_topk_identical_to_thread_engine(
        self, workload, pools, num_shards
    ):
        thread_engine = ShardedMateDiscovery(
            workload.corpus,
            num_shards=num_shards,
            config=CONFIG,
            hash_function_name="xash",
        )
        pool = pools(num_shards)
        for query in workload.queries:
            expected = thread_engine.discover(query, k=CONFIG.k)
            actual = pool.discover(query, k=CONFIG.k)
            assert topk_tuples(actual) == topk_tuples(expected)
            assert actual.complete and expected.complete
            assert actual.system == expected.system

    def test_stage_stats_and_metrics_populated(self, workload, pools):
        pool = pools(2)
        result = pool.discover(workload.queries[0], k=CONFIG.k)
        stages = result.counters.stages
        assert stages["scatter"].calls == 1
        assert stages["gather"].calls == 1
        assert stages["scatter"].items_in == 2
        assert pool.metrics.requests >= 1
        stats = pool.statistics()
        assert stats["num_shards"] == 2
        assert len(stats["workers"]) == 2
        assert stats["serve"]["requests"] >= 1

    def test_cost_mode_answers_what_selector_mode_answers(self, workload, pools):
        """Each worker seeds its shard from its own exact counts; the
        merged answer is the selector mode's."""
        pool = pools(2)
        for query in workload.queries:
            cost = pool.discover(
                query, k=CONFIG.k, planner=PlannerOptions(mode="cost")
            )
            assert cost.complete
            assert topk_tuples(cost) == topk_tuples(pool.discover(query, k=CONFIG.k))

    @settings(max_examples=10, deadline=None)
    @given(
        num_shards=st.sampled_from(SHARD_COUNTS),
        query_index=st.integers(min_value=0, max_value=1),
    )
    def test_property_pool_matches_single_process(
        self, workload, pools, reference, num_shards, query_index
    ):
        """Process-pool top-k == single-process top-k for any shard count."""
        pool = pools(num_shards)
        result = pool.discover(workload.queries[query_index], k=CONFIG.k)
        assert topk_tuples(result) == reference[query_index]


class TestBudget:
    def test_single_shard_budget_identical_to_mate(self, workload, pools):
        engine = make_mate(workload.corpus)
        query = workload.queries[0]
        reference_budget = RequestBudget(max_pl_fetches=4)
        expected = engine.discover(query, k=CONFIG.k, budget=reference_budget)
        pool_budget = RequestBudget(max_pl_fetches=4)
        actual = pools(1).discover(query, k=CONFIG.k, budget=pool_budget)
        assert topk_tuples(actual) == topk_tuples(expected)
        assert actual.complete == expected.complete
        assert pool_budget.remaining_pl_fetches == (
            reference_budget.remaining_pl_fetches
        )
        assert pool_budget.exhausted == reference_budget.exhausted

    def test_multi_shard_budget_reconciliation(self, workload, pools):
        budget = RequestBudget(max_pl_fetches=4)
        result = pools(3).discover(workload.queries[0], k=CONFIG.k, budget=budget)
        assert budget.remaining_pl_fetches == 0
        assert budget.exhausted
        assert not result.complete
        assert result.counters.budget_exhausted > 0

    def test_expired_deadline_latches_and_returns_nothing(
        self, workload, pools
    ):
        budget = RequestBudget(deadline_seconds=1e-9)
        while budget.remaining_seconds() > 0:  # let the clock tick past it
            pass
        result = pools(2).discover(workload.queries[0], k=CONFIG.k, budget=budget)
        assert budget.expired
        assert not result.complete
        assert result.tables == []

    def test_unbudgeted_requests_leave_no_ledger(self, workload, pools):
        result = pools(2).discover(workload.queries[0], k=CONFIG.k)
        assert result.complete


class TestSessionProcessExecution:
    def test_rejects_unknown_execution(self, workload):
        with pytest.raises(ConfigurationError):
            DiscoverySession(workload.corpus, config=CONFIG, execution="fiber")

    def test_process_session_matches_thread_session(self, workload):
        request = DiscoveryRequest(query=workload.queries[0], engine="sharded")
        with DiscoverySession(workload.corpus, config=CONFIG) as threads:
            expected = threads.discover(request)
        with DiscoverySession(
            workload.corpus,
            config=CONFIG,
            execution="process",
            serve_config=ServeConfig(num_shards=2),
        ) as processes:
            actual = processes.discover(request)
            assert topk_tuples(actual) == topk_tuples(expected)

            # The process pool honours budgets the thread engine refuses.
            limited = DiscoveryRequest(
                query=workload.queries[0], engine="sharded", max_pl_fetches=4
            )
            budgeted = processes.discover(limited)
            assert budgeted.counters.budget_exhausted >= 0
        with DiscoverySession(workload.corpus, config=CONFIG) as threads:
            with pytest.raises(DiscoveryError):
                threads.discover(limited)


class TestShardSegments:
    """The pool persists one ``.seg`` per table shard and no sketch file; a
    given ``segments_dir`` keeps them, and each maps back as the index the
    in-process engine builds for that shard."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_segments_map_back_as_the_in_process_shards(
        self, workload, reference, num_shards, tmp_path
    ):
        segments = tmp_path / "segments"
        with ProcessShardPool(
            workload.corpus,
            config=CONFIG,
            hash_function_name="xash",
            serve_config=ServeConfig(num_shards=num_shards, segments_dir=segments),
        ) as pool:
            result = pool.discover(workload.queries[0], k=CONFIG.k)
            assert topk_tuples(result) == reference[0]
        assert sorted(path.name for path in segments.iterdir()) == [
            f"shard_{position:02d}.seg" for position in range(num_shards)
        ]
        in_process = ShardedMateDiscovery(
            workload.corpus, num_shards=num_shards, config=CONFIG
        )
        for position, index in enumerate(in_process.shard_indexes):
            path = segments / f"shard_{position:02d}.seg"
            assert path.read_bytes() == write_segment(
                index, tmp_path / f"in_process_{position:02d}.seg", fsync=False
            ).read_bytes()
            mapped = load_segment(path)
            try:
                values = sorted(index.values())[::7] + ["never indexed"]
                assert_blocks_equal(
                    mapped.fetch_batch(values), index.fetch_batch(values)
                )
                assert mapped.indexed_tables() == index.indexed_tables()
            finally:
                mapped.close()

    def test_a_worker_signs_its_shard_at_its_first_sketch_query(
        self, workload, pools
    ):
        """Each worker signs its own shard corpus on the first sketch-mode
        query: the pool answers like per-shard engines over the in-process
        shards, merged, down to the sketch tier's candidate count."""
        pool = pools(2)
        in_process = ShardedMateDiscovery(workload.corpus, num_shards=2, config=CONFIG)
        options = {
            "planner": PlannerOptions(mode="sketch"),
            "sketch": SketchOptions(threshold=0.2),
        }
        for query in workload.queries:
            answer = pool.discover(query, k=CONFIG.k, **options)
            expected = merge_discovery_results(
                [
                    MateDiscovery(shard, index, config=CONFIG).discover(
                        query, k=CONFIG.k, **options
                    )
                    for shard, index in zip(
                        in_process.shards, in_process.shard_indexes
                    )
                ],
                CONFIG.k,
            )
            assert topk_tuples(answer) == topk_tuples(expected)
            assert answer.counters.extra["sketch_candidates"] == (
                expected.counters.extra["sketch_candidates"]
            )

    def test_a_private_segments_dir_is_removed_on_close(
        self, tiny_query_corpus, tmp_path, monkeypatch
    ):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        query, corpus = tiny_query_corpus
        pool = TestLifecycle().make_pool(corpus)
        try:
            (private,) = tmp_path.iterdir()
            assert private.name.startswith("mate-serve-")
            assert (private / "shard_00.seg").is_file()
            pool.discover(query, k=3)
        finally:
            pool.close()
        assert list(tmp_path.iterdir()) == []


class TestLifecycle:
    def make_pool(self, corpus, **kwargs):
        return ProcessShardPool(
            corpus,
            config=MateConfig(expected_unique_values=100_000, k=3),
            hash_function_name="xash",
            serve_config=ServeConfig(num_shards=1, **kwargs),
        )

    def test_spawn_context_worker(self, tiny_query_corpus):
        query, corpus = tiny_query_corpus
        engine = make_mate(
            corpus, config=MateConfig(expected_unique_values=100_000, k=3)
        )
        expected = engine.discover(query, k=3)
        with self.make_pool(corpus, mp_context="spawn") as pool:
            actual = pool.discover(query, k=3)
            assert topk_tuples(actual) == topk_tuples(expected)

    def test_close_is_idempotent_and_final(self, tiny_query_corpus):
        query, corpus = tiny_query_corpus
        pool = self.make_pool(corpus)
        pool.discover(query, k=3)
        pool.close()
        pool.close()
        with pytest.raises(DiscoveryError):
            pool.discover(query, k=3)

    def test_worker_crash_surfaces_as_discovery_error(self, tiny_query_corpus):
        query, corpus = tiny_query_corpus
        pool = self.make_pool(corpus)
        try:
            worker = pool._workers[0]
            worker.process.kill()
            worker.process.join(timeout=5)
            with pytest.raises(DiscoveryError):
                pool.discover(query, k=3)
        finally:
            pool.close()
