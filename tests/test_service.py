"""Tests for serving one index: the posting-list cache and session batches."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import (
    ConfigurationError,
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    ServiceConfig,
    ShardedMateDiscovery,
    build_index,
)
from repro.index import FetchBlock
from repro.index.cache import CachingIndex, PostingListCache
from repro.metrics import CacheCounters
from tests.helpers import CellIndex, fetch_items, row_keys


@pytest.fixture(scope="module")
def service_config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=100_000)


@pytest.fixture(scope="module")
def workload():
    from repro.datagen import build_workload

    return build_workload("WT_10", seed=23, num_queries=3, corpus_scale=0.15)


@pytest.fixture(scope="module")
def monolithic_index(workload, service_config):
    return build_index(workload.corpus, config=service_config)


def requests_for(workload, engine: str = "mate") -> list[DiscoveryRequest]:
    return [DiscoveryRequest(query=query, engine=engine) for query in workload.queries]


def counts(result) -> dict[str, int]:
    """The integer counters of a run (everything but its timings)."""
    counters = result.counters
    return {
        field.name: getattr(counters, field.name)
        for field in fields(counters)
        if field.type == "int"
    }


class TestPostingListCache:
    def test_hit_miss_and_eviction_accounting(self, monolithic_index):
        cache = PostingListCache(capacity=2)
        values = sorted(monolithic_index.values())[:3]
        assert cache.get(values[0]) is None  # miss
        cache.put(values[0], monolithic_index.fetch_batch([values[0]])[0])
        assert cache.get(values[0]) is not None  # hit
        cache.put(values[1], FetchBlock.empty(values[1]))
        cache.put(values[2], FetchBlock.empty(values[2]))  # evicts values[0]
        counters = cache.counters
        assert counters.hits == 1
        assert counters.misses == 1
        assert counters.evictions == 1
        assert counters.hit_rate == 0.5
        assert cache.get(values[0]) is None  # evicted

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            PostingListCache(capacity=0)

    def test_caching_index_is_transparent(self, monolithic_index):
        caching = CachingIndex(monolithic_index, capacity=64)
        values = sorted(monolithic_index.values())[:40]
        cold = fetch_items(caching, values)
        warm = fetch_items(caching, values)
        assert cold == fetch_items(monolithic_index, values)
        assert warm == cold
        assert caching.counters.misses == 40
        assert caching.counters.hits == 40
        # Delegated surface.
        assert caching.num_posting_items() == monolithic_index.num_posting_items()
        assert caching.hash_function_name == monolithic_index.hash_function_name
        assert caching.posting_lengths(values) == (
            monolithic_index.posting_lengths(values)
        )

    def test_negative_results_are_cached(self, monolithic_index):
        caching = CachingIndex(monolithic_index, capacity=8)
        assert fetch_items(caching, ["definitely-not-indexed"]) == []
        assert fetch_items(caching, ["definitely-not-indexed"]) == []
        assert caching.counters.hits == 1

    def test_mutation_invalidates(self, service_config):
        from repro.datamodel import Table, TableCorpus

        corpus = TableCorpus(name="tiny")
        corpus.add_table(
            Table(table_id=0, name="t", columns=["a"], rows=[["x"], ["y"]])
        )
        caching = CachingIndex(build_index(corpus, config=service_config))
        before = fetch_items(caching, ["x"])
        cells = CellIndex.of(caching.wrapped)
        cells.add_posting("x", 0, 0, 1)
        cells.keys[(0, 0)] = 12345
        # Replacing the block clears the whole cache: a rewritten block can
        # change any value's postings and any row's key.
        caching.replace_block(cells.to_block())
        after = fetch_items(caching, ["x"])
        assert len(after) == len(before) + 1
        assert after[0].super_key == 12345
        assert fetch_items(caching.wrapped, ["x"]) == after

    def test_counter_snapshots(self):
        counters = CacheCounters(hits=3, misses=1, evictions=2)
        snap = counters.snapshot()
        counters.hits += 2
        delta = counters.delta_since(snap)
        assert (delta.hits, delta.misses, delta.evictions) == (2, 0, 0)
        assert counters.as_dict()["cache_hits"] == 5
        assert counters.lookups == 6


class TestSessionBatch:
    """``discover_batch`` answers exactly what sequential runs do, with the
    batch's probe values fetched once through the session's cache."""

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_batch_matches_sequential_discovery(
        self, workload, service_config, monolithic_index, max_workers
    ):
        sequential = [
            MateDiscovery(
                workload.corpus, monolithic_index, config=service_config
            ).discover(query)
            for query in workload.queries
        ]
        with DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(
                cache_capacity=512, max_workers=max_workers
            ),
        ) as session:
            batch = session.discover_batch(requests_for(workload))
        assert len(batch) == len(workload.queries)
        for cold, served in zip(sequential, batch):
            assert served.result_tuples() == cold.result_tuples()

    def test_batch_stats_and_cache_accounting(
        self, workload, service_config, monolithic_index
    ):
        session = DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=512),
        )
        requests = requests_for(workload)
        first = session.discover_batch(requests)
        stats = first.stats
        assert stats.num_queries == len(requests)
        assert stats.batch_seconds > 0
        assert stats.queries_per_second > 0
        assert stats.distinct_probe_values > 0
        # Warm-up fetches each distinct value once (all misses); the engine
        # run then hits the cache for every one of them.
        assert stats.cache.misses == stats.distinct_probe_values
        assert stats.cache.hits >= stats.distinct_probe_values
        # A second identical batch is served entirely from the cache.
        second = session.discover_batch(requests)
        assert second.stats.cache.misses == 0
        assert second.stats.cache.hit_rate == 1.0
        for a, b in zip(first, second):
            assert a.result_tuples() == b.result_tuples()
        session.close()

    def test_cache_disabled(self, workload, service_config, monolithic_index):
        with DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=0),
        ) as session:
            assert session.index is monolithic_index
            batch = session.discover_batch(requests_for(workload))
        assert batch.stats.cache.lookups == 0
        cold = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        ).discover(workload.queries[0])
        assert batch.results[0].result_tuples() == cold.result_tuples()

    def test_probe_values_match_engine_initialization(
        self, workload, service_config, monolithic_index
    ):
        engine = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        )
        for query in workload.queries:
            values = engine.probe_values(query)
            assert values  # every generated query has complete key tuples
            initial = engine.column_selector(query, monolithic_index)
            key_map = engine._build_key_super_key_map(query, initial)
            assert set(values) == set(key_map)

    def test_precached_index_is_not_double_wrapped(
        self, workload, service_config, monolithic_index
    ):
        cached = CachingIndex(monolithic_index, capacity=128)
        session = DiscoverySession(
            workload.corpus,
            cached,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=4096),
        )
        # The session adopts the existing cache instead of stacking another.
        assert session.index is cached
        assert session.base_index is monolithic_index
        result = session.discover_batch([])  # touches the cache plumbing
        assert result.stats.num_queries == 0
        session.close()


class TestOneIndexPerSession:
    """``ServiceConfig.num_shards`` is the ``"sharded"`` engine's table-shard
    count only: the session serves the index it is given, unpartitioned."""

    def test_num_shards_leaves_the_index_alone(
        self, workload, service_config, monolithic_index
    ):
        plain = DiscoverySession(
            workload.corpus, monolithic_index, config=service_config
        )
        sharded = DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(num_shards=2),
        )
        with plain, sharded:
            assert sharded.base_index is monolithic_index
            assert sharded.index.wrapped is monolithic_index
            mate = sharded.discover_batch(requests_for(workload)).results
            unsharded = plain.discover_batch(requests_for(workload)).results
            over_shards = sharded.discover_batch(
                requests_for(workload, engine="sharded")
            ).results
        for one, other, table_shards in zip(mate, unsharded, over_shards):
            assert one.result_tuples() == other.result_tuples()
            assert counts(one) == counts(other)
            assert table_shards.result_tuples() == one.result_tuples()

    def test_service_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(cache_capacity=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_workers=0)
        # The value-sharded index's fetch fan-out went with it.
        with pytest.raises(TypeError, match="fetch_workers"):
            ServiceConfig(fetch_workers=2)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_engine_answers_equal_mate(
        self, workload, service_config, monolithic_index, num_shards
    ):
        with DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(num_shards=num_shards),
        ) as session:
            mate = session.discover_batch(requests_for(workload)).results
            over_shards = session.discover_batch(
                requests_for(workload, engine="sharded")
            ).results
        for one, table_shards in zip(mate, over_shards):
            assert [
                (table.table_id, table.joinability, tuple(table.column_mapping))
                for table in table_shards.tables
            ] == [
                (table.table_id, table.joinability, tuple(table.column_mapping))
                for table in one.tables
            ]

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_each_table_shard_indexes_its_own_tables(
        self, workload, service_config, monolithic_index, num_shards
    ):
        """A table shard's index holds the monolith's postings and row keys
        of exactly its own tables, in the monolith's order."""
        sharded = ShardedMateDiscovery(
            workload.corpus, num_shards=num_shards, config=service_config
        )
        values = sorted(monolithic_index.values())[:200] + ["never indexed"]
        whole = fetch_items(monolithic_index, values)
        keys = row_keys(monolithic_index)
        vocabulary: set[str] = set()
        for shard, index in zip(sharded.shards, sharded.shard_indexes):
            tables = set(shard.table_ids())
            assert index.indexed_tables() == (
                monolithic_index.indexed_tables() & tables
            )
            assert fetch_items(index, values) == [
                item for item in whole if item.table_id in tables
            ]
            assert row_keys(index) == [key for key in keys if key[0] in tables]
            vocabulary.update(index.values())
        assert vocabulary == set(monolithic_index.values())
        assert sum(
            index.num_posting_items() for index in sharded.shard_indexes
        ) == monolithic_index.num_posting_items()
        assert sum(index.num_rows() for index in sharded.shard_indexes) == (
            monolithic_index.num_rows()
        )
