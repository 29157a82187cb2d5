"""Tests for the service layer: sharded index, posting-list cache, batching."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    MateConfig,
    MateDiscovery,
    ServiceConfig,
    build_index,
    build_sharded_index,
)
from repro.index import (
    FetchBlock,
    ShardedInvertedIndex,
    open_shard_segments,
    save_shard_segments,
    shard_of_value,
)
from repro.metrics import CacheCounters
from repro.service import CachingIndex, DiscoveryService, PostingListCache
from repro.storage import (
    InMemoryBackend,
    SQLiteBackend,
    list_sharded_indexes,
    load_sharded_index,
    save_sharded_index,
)
from repro.exceptions import IndexError_, StorageError
from repro.storage import write_segment
from tests.helpers import (
    INDEX_VARIANTS,
    CellIndex,
    assert_blocks_equal,
    block_columns,
    build_index_variant,
)


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


class TestShardRouting:
    def test_shard_of_value_is_stable_and_in_range(self):
        for value in ("muhammad", "lee", "germany", "60k", "x"):
            shard = shard_of_value(value, 4)
            assert 0 <= shard < 4
            assert shard == shard_of_value(value, 4)

    def test_single_shard_short_circuits(self):
        assert shard_of_value("anything", 1) == 0

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_fetch_equals_monolithic_fetch(
        self, workload, service_config, monolithic_index, num_shards
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=num_shards, config=service_config
        )
        values = sorted(monolithic_index.values())[:200] + ["missing-from-index"]
        assert sharded.fetch(values) == monolithic_index.fetch(values)
        assert sharded.fetch_grouped_by_table(values) == (
            monolithic_index.fetch_grouped_by_table(values)
        )
        assert sharded.posting_count_for_values(values) == (
            monolithic_index.posting_count_for_values(values)
        )

    def test_parallel_fetch_equals_serial_fetch(
        self, workload, service_config, monolithic_index
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=4, config=service_config, max_workers=4
        )
        values = sorted(monolithic_index.values())[:200]
        assert sharded.fetch(values) == monolithic_index.fetch(values)

    def test_shards_partition_the_values(self, workload, service_config):
        sharded = build_sharded_index(
            workload.corpus, num_shards=4, config=service_config
        )
        for shard_index in range(sharded.num_shards):
            for value in sharded.shard(shard_index).values():
                assert sharded.shard_of(value) == shard_index
        assert sum(sharded.shard_sizes()) == sharded.num_posting_items()

    def test_introspection_matches_monolith(
        self, workload, service_config, monolithic_index
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=service_config
        )
        assert len(sharded) == len(monolithic_index)
        assert sharded.num_posting_items() == monolithic_index.num_posting_items()
        assert sharded.num_rows() == monolithic_index.num_rows()
        assert sharded.indexed_tables() == monolithic_index.indexed_tables()
        assert sorted(sharded.values()) == sorted(monolithic_index.values())
        assert sorted(sharded.iter_super_keys()) == sorted(
            monolithic_index.iter_super_keys()
        )

    def test_from_index_partition(self, service_config, monolithic_index):
        sharded = ShardedInvertedIndex.from_index(monolithic_index, num_shards=4)
        values = sorted(monolithic_index.values())[:100]
        assert sharded.fetch(values) == monolithic_index.fetch(values)

    def test_discovery_engine_runs_unchanged_on_sharded_index(
        self, workload, service_config, monolithic_index
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=4, config=service_config
        )
        for query in workload.queries:
            mono = MateDiscovery(
                workload.corpus, monolithic_index, config=service_config
            ).discover(query)
            over_shards = MateDiscovery(
                workload.corpus, sharded, config=service_config
            ).discover(query)
            assert over_shards.result_tuples() == mono.result_tuples()


class TestShardPartition:
    """``from_index`` is a value-hash partition of one block: every shard
    equals the per-cell reference's shard — its values' postings in
    first-seen order, over the whole row table."""

    @pytest.mark.parametrize("variant", INDEX_VARIANTS)
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_each_shard_equals_the_reference_shard(
        self, workload, service_config, variant, num_shards, tmp_path
    ):
        index = build_index_variant(variant, workload.corpus, config=service_config)
        sharded = ShardedInvertedIndex.from_index(index, num_shards)
        assert not index._state.views  # partitioning memoised nothing
        reference = CellIndex.of(index)
        shards = [
            CellIndex(index.hash_size, index.hash_function_name)
            for _ in range(num_shards)
        ]
        for value, columns in reference.postings.items():
            shards[shard_of_value(value, num_shards)].postings[value] = columns
        for position, cells in enumerate(shards):
            cells.keys = reference.keys
            mine = sharded.shard(position)
            theirs = cells.to_index()
            # Vocabulary, posting columns, row table, spill and unpacked ids.
            assert block_columns(mine.block) == block_columns(theirs.block)
            assert write_segment(
                mine, tmp_path / f"mine{position}.seg", fsync=False
            ).read_bytes() == write_segment(
                theirs, tmp_path / f"theirs{position}.seg", fsync=False
            ).read_bytes()
            # The row table is the source's, shared uncopied.
            assert np.shares_memory(
                np.frombuffer(mine.block.row_keys, np.uint8),
                np.frombuffer(index.block.row_keys, np.uint8),
            )
        assert any(sharded.shard(p).block.unpacked for p in range(num_shards)) == (
            variant == "spilled"
        )
        values = list(index.values())[::5] + ["", "never indexed"]
        assert_blocks_equal(sharded.fetch_batch(values), index.fetch_batch(values))

    @pytest.mark.parametrize("variant", INDEX_VARIANTS)
    def test_sqlite_round_trip(self, workload, service_config, variant, tmp_path):
        index = build_index_variant(variant, workload.corpus, config=service_config)
        sharded = ShardedInvertedIndex.from_index(index, 3)
        with SQLiteBackend(tmp_path / "sharded.db") as backend:
            save_sharded_index(backend, "main", sharded)
        with SQLiteBackend(tmp_path / "sharded.db") as backend:
            loaded = load_sharded_index(backend, "main")
        values = list(index.values())[::3] + ["never indexed"]
        assert_blocks_equal(loaded.fetch_batch(values), sharded.fetch_batch(values))
        assert list(loaded.iter_super_keys()) == list(sharded.iter_super_keys())
        for position in range(3):
            # SQLite hands the values back sorted: compare them as a map.
            mine = CellIndex.of(loaded.shard(position))
            theirs = CellIndex.of(sharded.shard(position))
            assert (mine.postings, mine.keys) == (theirs.postings, theirs.keys)


class TestShardSegments:
    """A sharded index saved as one ``.seg`` per shard maps back as the same
    class; its manifest is checked before anything is opened."""

    def test_round_trip(self, workload, service_config, monolithic_index, tmp_path):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=service_config
        )
        save_shard_segments(sharded, tmp_path)
        values = sorted(monolithic_index.values())[:150] + ["never indexed"]
        with open_shard_segments(tmp_path, max_workers=2) as mapped:
            assert type(mapped) is ShardedInvertedIndex
            assert [mapped.shard(p).path for p in range(3)] == [
                tmp_path / f"shard_{p:02d}.seg" for p in range(3)
            ]
            assert_blocks_equal(
                mapped.fetch_batch(values), monolithic_index.fetch_batch(values)
            )
            assert mapped.num_rows() == monolithic_index.num_rows()
            assert mapped.shard_sizes() == sharded.shard_sizes()
        assert mapped.shard(0).closed

    #: Manifests a damaged or foreign directory may hold.
    MANIFESTS = {
        "no shards": '{"num_shards": 0, "hash_function": "xash", '
        '"hash_size": 128, "segments": []}',
        "no shard count": '{"hash_function": "xash", "hash_size": 128, '
        '"segments": ["shard_00.seg"]}',
        "not JSON": "{num_shards: 1",
        "too few segments": '{"num_shards": 2, "hash_function": "xash", '
        '"hash_size": 128, "segments": ["shard_00.seg"]}',
        "no hash size": '{"num_shards": 1, "hash_function": "xash", '
        '"segments": ["shard_00.seg"]}',
    }

    @pytest.mark.parametrize("case", sorted(MANIFESTS))
    def test_a_bad_manifest_is_refused_naming_it(self, tmp_path, case):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(self.MANIFESTS[case], encoding="utf-8")
        with pytest.raises(IndexError_) as raised:
            open_shard_segments(tmp_path)
        assert str(manifest) in str(raised.value)


class TestPostingListCache:
    def test_hit_miss_and_eviction_accounting(self, monolithic_index):
        cache = PostingListCache(capacity=2)
        values = sorted(monolithic_index.values())[:3]
        assert cache.get(values[0]) is None  # miss
        cache.put(values[0], monolithic_index.fetch_batch([values[0]])[0])
        assert cache.get(values[0]) is not None  # hit
        cache.put(values[1], FetchBlock.empty(values[1]))
        cache.put(values[2], FetchBlock.empty(values[2]))  # evicts values[0]
        assert values[0] not in cache
        counters = cache.counters
        assert counters.hits == 1
        assert counters.misses == 1
        assert counters.evictions == 1
        assert counters.hit_rate == 0.5

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ConfigurationError):
            PostingListCache(capacity=0)

    def test_caching_index_is_transparent(self, monolithic_index):
        caching = CachingIndex(monolithic_index, capacity=64)
        values = sorted(monolithic_index.values())[:40]
        cold = caching.fetch(values)
        warm = caching.fetch(values)
        assert cold == monolithic_index.fetch(values)
        assert warm == cold
        assert caching.counters.misses == 40
        assert caching.counters.hits == 40
        # Delegated surface.
        assert len(caching) == len(monolithic_index)
        assert caching.hash_function_name == monolithic_index.hash_function_name
        assert caching.posting_list(values[0]) == (
            monolithic_index.posting_list(values[0])
        )

    def test_negative_results_are_cached(self, monolithic_index):
        caching = CachingIndex(monolithic_index, capacity=8)
        assert caching.fetch(["definitely-not-indexed"]) == []
        assert caching.fetch(["definitely-not-indexed"]) == []
        assert caching.counters.hits == 1

    def test_mutation_invalidates(self, service_config):
        from repro.datamodel import Table, TableCorpus

        corpus = TableCorpus(name="tiny")
        corpus.add_table(
            Table(table_id=0, name="t", columns=["a"], rows=[["x"], ["y"]])
        )
        caching = CachingIndex(build_index(corpus, config=service_config))
        before = caching.fetch(["x"])
        cells = CellIndex.of(caching.wrapped)
        cells.add_posting("x", 0, 0, 1)
        cells.keys[(0, 0)] = 12345
        # Replacing the block clears the whole cache: a rewritten block can
        # change any value's postings and any row's key.
        caching.replace_block(cells.to_block())
        after = caching.fetch(["x"])
        assert len(after) == len(before) + 1
        assert after[0].super_key == 12345
        assert caching.wrapped.fetch(["x"]) == after

    def test_counter_snapshots_and_merge(self):
        counters = CacheCounters(hits=3, misses=1, evictions=2)
        snap = counters.snapshot()
        counters.hits += 2
        delta = counters.delta_since(snap)
        assert (delta.hits, delta.misses, delta.evictions) == (2, 0, 0)
        merged = CacheCounters()
        merged.merge(counters)
        assert merged.as_dict()["cache_hits"] == 5
        assert merged.lookups == 6


class TestDiscoveryService:
    @pytest.mark.parametrize("num_shards,max_workers", [(1, 1), (4, 1), (4, 3)])
    def test_batch_matches_sequential_discovery(
        self, workload, service_config, monolithic_index, num_shards, max_workers
    ):
        sequential = [
            MateDiscovery(
                workload.corpus, monolithic_index, config=service_config
            ).discover(query)
            for query in workload.queries
        ]
        index = build_sharded_index(
            workload.corpus, num_shards=num_shards, config=service_config
        )
        service = DiscoveryService(
            workload.corpus,
            index,
            config=service_config,
            service_config=ServiceConfig(
                cache_capacity=512, max_workers=max_workers
            ),
        )
        batch = service.discover_batch(list(workload.queries))
        assert len(batch) == len(workload.queries)
        for cold, served in zip(sequential, batch):
            assert served.result_tuples() == cold.result_tuples()

    def test_batch_stats_and_cache_accounting(
        self, workload, service_config, monolithic_index
    ):
        service = DiscoveryService(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=512),
        )
        queries = list(workload.queries)
        first = service.discover_batch(queries)
        stats = first.stats
        assert stats.num_queries == len(queries)
        assert stats.batch_seconds > 0
        assert stats.queries_per_second > 0
        assert stats.distinct_probe_values > 0
        # Warm-up fetches each distinct value once (all misses); the engine
        # run then hits the cache for every one of them.
        assert stats.cache.misses == stats.distinct_probe_values
        assert stats.cache.hits >= stats.distinct_probe_values
        # A second identical batch is served entirely from the cache.
        second = service.discover_batch(queries)
        assert second.stats.cache.misses == 0
        assert second.stats.cache.hit_rate == 1.0
        for a, b in zip(first, second):
            assert a.result_tuples() == b.result_tuples()

    def test_cache_disabled(self, workload, service_config, monolithic_index):
        service = DiscoveryService(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=0),
        )
        batch = service.discover_batch(list(workload.queries))
        assert batch.stats.cache.lookups == 0
        cold = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        ).discover(workload.queries[0])
        assert batch[0].result_tuples() == cold.result_tuples()

    def test_single_query_serving(self, workload, service_config, monolithic_index):
        service = DiscoveryService(
            workload.corpus, monolithic_index, config=service_config
        )
        result = service.discover(workload.queries[0])
        cold = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        ).discover(workload.queries[0])
        assert result.result_tuples() == cold.result_tuples()

    def test_service_shards_a_monolithic_index_per_config(
        self, workload, service_config, monolithic_index
    ):
        from repro.service.cache import CachingIndex as _CachingIndex

        service = DiscoveryService(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(num_shards=4, fetch_workers=3),
        )
        assert isinstance(service.index, _CachingIndex)
        assert isinstance(service.index.wrapped, ShardedInvertedIndex)
        assert service.index.wrapped.num_shards == 4
        assert service.index.wrapped.max_workers == 3
        batch = service.discover_batch(list(workload.queries))
        cold = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        ).discover(workload.queries[0])
        assert batch[0].result_tuples() == cold.result_tuples()

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

    def test_service_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(cache_capacity=-1)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_workers=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(fetch_workers=0)


class TestShardedPersistence:
    @pytest.mark.parametrize("backend_factory", [InMemoryBackend, SQLiteBackend])
    def test_round_trip(
        self, workload, service_config, monolithic_index, backend_factory, tmp_path
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=service_config
        )
        if backend_factory is SQLiteBackend:
            backend = backend_factory(tmp_path / "service.db")
        else:
            backend = backend_factory()
        with backend:
            save_sharded_index(backend, "main", sharded)
            assert list_sharded_indexes(backend) == {"main": 3}
            loaded = load_sharded_index(backend, "main")
        assert loaded.num_shards == 3
        assert loaded.hash_function_name == sharded.hash_function_name
        assert loaded.hash_size == sharded.hash_size
        values = sorted(monolithic_index.values())[:150]
        assert loaded.fetch(values) == monolithic_index.fetch(values)
        assert sorted(loaded.iter_super_keys()) == sorted(
            sharded.iter_super_keys()
        )
        assert loaded.shard_sizes() == sharded.shard_sizes()

    def test_sqlite_round_trip_preserves_discovery(
        self, workload, service_config, tmp_path
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=4, config=service_config
        )
        with SQLiteBackend(tmp_path / "svc.db") as backend:
            save_sharded_index(backend, "main", sharded)
        with SQLiteBackend(tmp_path / "svc.db") as backend:
            loaded = load_sharded_index(backend, "main")
        query = workload.queries[0]
        original = MateDiscovery(
            workload.corpus, sharded, config=service_config
        ).discover(query)
        restored = MateDiscovery(
            workload.corpus, loaded, config=service_config
        ).discover(query)
        assert restored.result_tuples() == original.result_tuples()

    def test_resave_with_different_shard_count_replaces_old_layout(
        self, workload, service_config
    ):
        four = build_sharded_index(
            workload.corpus, num_shards=4, config=service_config
        )
        two = build_sharded_index(
            workload.corpus, num_shards=2, config=service_config
        )
        with InMemoryBackend() as backend:
            save_sharded_index(backend, "main", four)
            save_sharded_index(backend, "main", two)
            assert list_sharded_indexes(backend) == {"main": 2}
            # No shard records of the old 4-way layout are left behind.
            assert all("of4" not in name for name in backend.list_indexes())
            loaded = load_sharded_index(backend, "main")
        assert loaded.num_shards == 2
        assert loaded.num_posting_items() == two.num_posting_items()

    def test_incomplete_layouts_are_not_listed(self, workload, service_config):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=service_config
        )
        with InMemoryBackend() as backend:
            save_sharded_index(backend, "main", sharded)
            backend.delete_index("main.shard2of3")
            assert list_sharded_indexes(backend) == {}
            with pytest.raises(StorageError):
                load_sharded_index(backend, "main")

    def test_missing_sharded_index_raises(self):
        with InMemoryBackend() as backend:
            with pytest.raises(StorageError):
                load_sharded_index(backend, "nope")

    def test_list_indexes_on_both_backends(self, monolithic_index, tmp_path):
        with InMemoryBackend() as backend:
            backend.save_index("solo", monolithic_index)
            assert backend.list_indexes() == ["solo"]
        with SQLiteBackend(tmp_path / "list.db") as backend:
            backend.save_index("solo", monolithic_index)
            assert backend.list_indexes() == ["solo"]


class TestServiceSessionRouting:
    """The deprecated shim routes everything through a supplied session."""

    def test_supplied_session_is_used_as_is(
        self, workload, service_config, monolithic_index
    ):
        from repro.api import DiscoverySession

        session = DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(cache_capacity=256),
        )
        with pytest.warns(DeprecationWarning):
            service = DiscoveryService(session=session)
        # Same session, same index object, same cache — nothing duplicated.
        assert service.session is session
        assert service.index is session.index
        assert service.corpus is session.corpus
        assert service.cache_counters is session.cache_counters
        result = service.discover(workload.queries[0])
        direct = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        ).discover(workload.queries[0])
        assert result.result_tuples() == direct.result_tuples()
        # Cache traffic from the shim landed in the session's cache.
        assert session.cache_counters.lookups > 0
        # Closing the shim leaves the borrowed session open for its owner.
        service.close()
        assert session.discover_batch([]).stats.num_queries == 0
        session.close()

    def test_conflicting_corpus_or_index_is_refused(
        self, workload, service_config, monolithic_index
    ):
        from repro.api import DiscoverySession
        from repro.datamodel import TableCorpus

        session = DiscoverySession(
            workload.corpus, monolithic_index, config=service_config
        )
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError):
                DiscoveryService(TableCorpus(name="other"), session=session)
        other_index = build_index(workload.corpus, config=service_config)
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError):
                DiscoveryService(index=other_index, session=session)

    def test_corpus_is_required_without_a_session(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ConfigurationError):
                DiscoveryService()

    def test_precached_index_is_not_double_wrapped(
        self, workload, service_config, monolithic_index
    ):
        from repro.api import DiscoverySession

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
