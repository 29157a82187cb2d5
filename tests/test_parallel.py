"""Tests for sharded discovery (repro.core.parallel)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MateConfig
from repro.core import (
    DiscoveryResult,
    MateDiscovery,
    ShardedMateDiscovery,
    merge_discovery_results,
    shard_corpus,
)
from repro.core.results import TableResult
from repro.datagen import build_workload
from repro.datamodel import TableCorpus
from repro.exceptions import DiscoveryError
from repro.index import build_index
from repro.metrics import DiscoveryCounters

CONFIG = MateConfig(expected_unique_values=100_000, k=5)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=17, num_queries=2, corpus_scale=0.3)


class TestShardCorpus:
    def test_shards_are_disjoint_and_complete(self, workload):
        shards = shard_corpus(workload.corpus, 4)
        all_ids = [tid for shard in shards for tid in shard.table_ids()]
        assert sorted(all_ids) == sorted(workload.corpus.table_ids())
        assert len(set(all_ids)) == len(all_ids)

    def test_shards_are_balanced(self, workload):
        shards = shard_corpus(workload.corpus, 5)
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_tables_go_round_robin_over_sorted_ids(self, workload, num_shards):
        # The in-process engine and the process pool both rely on this rule
        # to split a corpus into the same shards.
        table_ids = sorted(workload.corpus.table_ids())
        shards = shard_corpus(workload.corpus, num_shards)
        assert len(shards) == num_shards
        for position, shard in enumerate(shards):
            assert shard.name == f"{workload.corpus.name}_shard_{position}"
            assert sorted(shard.table_ids()) == table_ids[position::num_shards]
            for table_id in shard.table_ids():
                assert shard.get_table(table_id) is workload.corpus.get_table(
                    table_id
                )

    def test_more_shards_than_tables(self):
        corpus = TableCorpus(name="tiny")
        corpus.create_table(name="only", columns=["a"], rows=[["x"]])
        shards = shard_corpus(corpus, 3)
        assert [len(s) for s in shards] == [1, 0, 0]

    def test_invalid_shard_count(self, workload):
        with pytest.raises(DiscoveryError):
            shard_corpus(workload.corpus, 0)


class TestMergeDiscoveryResults:
    def make_result(self, entries, system="mate"):
        counters = DiscoveryCounters()
        counters.rows_checked = 10
        counters.runtime_seconds = entries[0][1] / 100 if entries else 0.0
        return DiscoveryResult(
            system=system,
            k=5,
            tables=[
                TableResult(table_id=tid, joinability=j) for tid, j in entries
            ],
            counters=counters,
        )

    def test_merge_takes_global_top_k(self):
        first = self.make_result([(1, 10), (2, 8)])
        second = self.make_result([(3, 9), (4, 1)])
        merged = merge_discovery_results([first, second], k=3)
        assert merged.result_tuples() == [(1, 10), (3, 9), (2, 8)]

    def test_merge_counters_sum_and_runtime_is_max(self):
        first = self.make_result([(1, 10)])
        second = self.make_result([(2, 20)])
        merged = merge_discovery_results([first, second], k=2)
        assert merged.counters.rows_checked == 20
        assert merged.counters.runtime_seconds == pytest.approx(0.2)
        assert merged.counters.extra["total_shard_seconds"] == pytest.approx(0.3)

    def test_merge_requires_positive_k(self):
        with pytest.raises(DiscoveryError):
            merge_discovery_results([], k=0)

    def test_merge_empty_inputs(self):
        merged = merge_discovery_results([], k=3)
        assert merged.tables == []

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=50),
                    st.integers(min_value=1, max_value=100),
                ),
                max_size=5,
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_merged_scores_are_the_best_available(self, shards):
        # Deduplicate table ids within each shard (a shard reports a table once).
        cleaned = []
        for shard in shards:
            seen = {}
            for tid, joinability in shard:
                seen[tid] = max(seen.get(tid, 0), joinability)
            cleaned.append(sorted(seen.items()))
        results = [self.make_result(entries) for entries in cleaned if entries]
        if not results:
            return
        merged = merge_discovery_results(results, k=3)
        best_scores = {}
        for entries in cleaned:
            for tid, joinability in entries:
                best_scores[tid] = max(best_scores.get(tid, 0), joinability)
        expected_top = sorted(best_scores.values(), reverse=True)[:3]
        assert [j for _, j in merged.result_tuples()] == expected_top[: len(merged.tables)]


class TestShardedMateDiscovery:
    def test_sharded_results_match_single_engine(self, workload):
        index = build_index(workload.corpus, config=CONFIG)
        single = MateDiscovery(workload.corpus, index, config=CONFIG)
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=4, config=CONFIG)
        for query in workload.queries:
            expected = single.discover(query, k=5)
            actual = sharded.discover(query, k=5)
            # The top-k joinability scores are guaranteed identical; table
            # identities may only differ among tables tied at the k-th score.
            expected_scores = [j for _, j in expected.result_tuples()]
            actual_scores = [j for _, j in actual.result_tuples()]
            assert actual_scores == expected_scores
            boundary = expected_scores[-1] if expected_scores else 0
            expected_above = {
                tid for tid, j in expected.result_tuples() if j > boundary
            }
            actual_above = {
                tid for tid, j in actual.result_tuples() if j > boundary
            }
            assert actual_above == expected_above

    def test_shards_run_serially(self, workload):
        # The thread pool went with max_workers: the shards run in turn, and
        # parallel shards are the process pool's (ProcessShardPool).
        with pytest.raises(TypeError, match="max_workers"):
            ShardedMateDiscovery(
                workload.corpus, num_shards=3, config=CONFIG, max_workers=3
            )

    def test_shard_statistics_and_imbalance(self, workload):
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=4, config=CONFIG)
        assert sharded.work_imbalance() == 0.0
        sharded.discover(workload.queries[0], k=5)
        stats = sharded.last_shard_statistics
        assert len(stats) == 4
        assert all(s.runtime_seconds >= 0 for s in stats)
        assert sharded.work_imbalance() >= 1.0 or sharded.work_imbalance() == 1.0

    def test_shard_statistics_sum_to_the_merged_counters(self, workload):
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=3, config=CONFIG)
        result = sharded.discover(workload.queries[0], k=5)
        stats = sharded.last_shard_statistics
        assert [s.shard_index for s in stats] == [0, 1, 2]
        assert sum(s.num_tables for s in stats) == len(workload.corpus)
        assert sum(s.pl_items_fetched for s in stats) == (
            result.counters.pl_items_fetched
        )
        assert sum(s.rows_checked for s in stats) == result.counters.rows_checked
        assert result.counters.runtime_seconds == max(
            s.runtime_seconds for s in stats
        )

    def test_single_shard_equals_plain_mate(self, workload):
        # One shard over the whole corpus is literally the single engine, so
        # the full result (including table identities) must match.
        index = build_index(workload.corpus, config=CONFIG)
        single = MateDiscovery(workload.corpus, index, config=CONFIG)
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=1, config=CONFIG)
        query = workload.queries[0]
        assert (
            sharded.discover(query, k=3).result_tuples()
            == single.discover(query, k=3).result_tuples()
        )

    def test_invalid_parameters(self, workload):
        with pytest.raises(DiscoveryError):
            ShardedMateDiscovery(workload.corpus, num_shards=0, config=CONFIG)
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=2, config=CONFIG)
        with pytest.raises(DiscoveryError):
            sharded.discover(workload.queries[0], k=0)

    def test_default_k_comes_from_config(self, workload):
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=2, config=CONFIG)
        result = sharded.discover(workload.queries[0])
        assert result.k == CONFIG.k
