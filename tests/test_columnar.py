"""Tests for the columnar posting-list engine and its packed persistence."""

from __future__ import annotations

import pytest

from repro import MateConfig, MateDiscovery, build_index, build_sharded_index
from repro.datagen import build_workload
from repro.exceptions import ConfigurationError, IndexError_, StorageError
from repro.index import (
    ColumnarPostingList,
    DictSuperKeys,
    FetchBlock,
    InvertedIndex,
    PackedSuperKeys,
    compute_table_runs,
    fetch_table_blocks,
    group_into_table_blocks,
)
from repro.service import CachingIndex, DiscoveryService
from repro.storage import (
    InMemoryBackend,
    PagedPostingStore,
    SQLiteBackend,
    index_from_payload,
    index_to_payload,
    load_index_json,
    load_sharded_index,
    save_index_json,
    save_sharded_index,
)
from tests.helpers import BUILD_LANES, build_in_lane


@pytest.fixture(scope="module")
def config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=100_000)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_10", seed=31, num_queries=3, corpus_scale=0.15)


@pytest.fixture(scope="module")
def legacy_index(workload, config):
    return build_index(workload.corpus, config=config, layout="legacy")


@pytest.fixture(scope="module")
def columnar_index(workload, config):
    return build_index(workload.corpus, config=config, layout="columnar")


class TestPackedSuperKeys:
    def test_set_get_roundtrip(self):
        store = PackedSuperKeys(128)
        store.set((1, 2), 0xDEADBEEF)
        store.set((1, 3), (1 << 127) | 5)
        assert store.get((1, 2)) == 0xDEADBEEF
        assert store.get((1, 3)) == (1 << 127) | 5
        assert store.get((9, 9)) == 0
        assert store.get((9, 9), None) is None
        assert (1, 2) in store and (9, 9) not in store
        assert len(store) == 2

    def test_oversized_keys_spill(self):
        store = PackedSuperKeys(64)
        wide = 1 << 80  # wider than the configured 64 bits
        store.set((0, 0), wide)
        assert store.get((0, 0)) == wide
        # Replacing a spilled key with a fitting one moves it back to a slot.
        store.set((0, 0), 7)
        assert store.get((0, 0)) == 7
        assert len(store) == 1

    def test_or_into_and_pop(self):
        store = PackedSuperKeys(128)
        assert store.or_into((0, 0), 0b0101) == 0b0101
        assert store.or_into((0, 0), 0b1010) == 0b1111
        store.pop((0, 0))
        assert (0, 0) not in store
        store.pop((0, 0))  # no-op

    def test_slot_recycling(self):
        store = PackedSuperKeys(128)
        for row in range(4):
            store.set((0, row), row + 1)
        buffer_size = len(store._buffer)
        store.pop((0, 1))
        store.set((0, 9), 42)  # reuses the freed slot
        assert len(store._buffer) == buffer_size
        assert store.get((0, 9)) == 42

    def test_epoch_bumps_on_mutation(self):
        store = PackedSuperKeys(128)
        before = store.epoch
        store.set((0, 0), 1)
        store.or_into((0, 0), 2)
        store.pop((0, 0))
        assert store.epoch == before + 3

    @pytest.mark.parametrize("factory", [lambda: PackedSuperKeys(128), DictSuperKeys])
    def test_get_many_and_items_parity(self, factory):
        store = factory()
        expected = {}
        for table_id in range(3):
            for row in range(5):
                value = (table_id * 31 + row) << (row * 7)
                store.set((table_id, row), value)
                expected[(table_id, row)] = value
        assert dict(store.items()) == expected
        keys = sorted(expected)
        column = store.get_many(
            [k[0] for k in keys], [k[1] for k in keys]
        )
        assert column == [expected[k] for k in keys]
        assert store.get_many([99], [99]) == [0]


class TestColumnarPostingList:
    def test_runs_and_items(self):
        columns = ColumnarPostingList()
        for table_id, column_index, row_index in [
            (1, 0, 0), (1, 1, 0), (2, 0, 3), (2, 0, 4), (1, 0, 9),
        ]:
            columns.append(table_id, column_index, row_index)
        assert len(columns) == 5
        assert columns.runs() == [(1, 0, 2), (2, 2, 4), (1, 4, 5)]
        assert [item.table_id for item in columns.items()] == [1, 1, 2, 2, 1]
        assert columns.item(2).row_index == 3

    def test_runs_memoised_until_append(self):
        columns = ColumnarPostingList()
        columns.append(1, 0, 0)
        first = columns.runs()
        assert columns.runs() is first
        columns.append(2, 0, 0)
        assert columns.runs() == [(1, 0, 1), (2, 1, 2)]

    def test_super_key_column_memoised_per_store_epoch(self):
        columns = ColumnarPostingList()
        columns.append(0, 0, 0)
        columns.append(0, 0, 1)
        store = PackedSuperKeys(128)
        store.set((0, 0), 11)
        store.set((0, 1), 22)
        first = columns.super_key_column(store)
        assert first == [11, 22]
        assert columns.super_key_column(store) is first  # memoised
        store.set((0, 1), 33)  # epoch bump invalidates
        assert columns.super_key_column(store) == [11, 33]
        other = DictSuperKeys()
        other.set((0, 0), 1)
        assert columns.super_key_column(other) == [1, 0]  # different store

    def test_filtered_keeps_object_when_nothing_removed(self):
        columns = ColumnarPostingList()
        columns.append(1, 0, 0)
        kept, removed = columns.filtered(lambda t, c, r: True)
        assert kept is columns and removed == 0
        kept, removed = columns.filtered(lambda t, c, r: t != 1)
        assert removed == 1 and len(kept) == 0

    def test_from_columns_validates_lengths(self):
        with pytest.raises(ValueError):
            ColumnarPostingList.from_columns([1, 2], [0], [0, 1])

    def test_compute_table_runs_empty(self):
        assert compute_table_runs([]) == []


class TestLayoutParity:
    """Columnar and legacy layouts are observably identical."""

    def test_fetch_results_identical(self, legacy_index, columnar_index):
        values = sorted(legacy_index.values())[:300] + ["missing", ""]
        assert columnar_index.fetch(values) == legacy_index.fetch(values)
        assert columnar_index.fetch_grouped_by_table(values) == (
            legacy_index.fetch_grouped_by_table(values)
        )

    def test_fetch_batch_flattens_to_fetch(self, columnar_index):
        values = sorted(columnar_index.values())[:200]
        flattened = [
            item
            for block in columnar_index.fetch_batch(values)
            for item in block
        ]
        assert flattened == columnar_index.fetch(values)

    def test_fetch_batch_parity_across_layouts(self, legacy_index, columnar_index):
        values = sorted(legacy_index.values())[:200]
        assert columnar_index.fetch_batch(values) == legacy_index.fetch_batch(
            values
        )

    def test_posting_accessors_identical(self, legacy_index, columnar_index):
        assert len(columnar_index) == len(legacy_index)
        assert columnar_index.num_posting_items() == legacy_index.num_posting_items()
        assert sorted(columnar_index.iter_super_keys()) == sorted(
            legacy_index.iter_super_keys()
        )
        for value in sorted(legacy_index.values())[:50]:
            assert columnar_index.posting_list(value) == (
                legacy_index.posting_list(value)
            )
            assert columnar_index.posting_list_length(value) == (
                legacy_index.posting_list_length(value)
            )

    def test_table_blocks_match_grouped_fetch(self, legacy_index, columnar_index):
        values = sorted(legacy_index.values())[:200]
        grouped = legacy_index.fetch_grouped_by_table(values)
        blocks = group_into_table_blocks(columnar_index.fetch_batch(values))
        assert set(blocks) == set(grouped)
        for table_id, block in blocks.items():
            assert block.items() == grouped[table_id]
        # The helper used by the engine produces the same grouping for both.
        legacy_blocks = fetch_table_blocks(legacy_index, values)
        for table_id, block in fetch_table_blocks(columnar_index, values).items():
            assert block.items() == legacy_blocks[table_id].items()

    def test_discovery_topk_identical_on_planted_workload(
        self, workload, config, legacy_index, columnar_index
    ):
        for query in workload.queries:
            legacy = MateDiscovery(
                workload.corpus, legacy_index, config=config
            ).discover(query)
            columnar = MateDiscovery(
                workload.corpus, columnar_index, config=config
            ).discover(query)
            assert columnar.result_tuples() == legacy.result_tuples()
            assert (
                columnar.counters.pl_items_fetched
                == legacy.counters.pl_items_fetched
            )
            assert columnar.counters.rows_checked == legacy.counters.rows_checked

    def test_sharded_columnar_discovery_matches(self, workload, config, legacy_index):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=config, layout="columnar"
        )
        assert sharded.layout == "columnar"
        values = sorted(legacy_index.values())[:200]
        assert sharded.fetch(values) == legacy_index.fetch(values)
        for query in workload.queries[:1]:
            legacy = MateDiscovery(
                workload.corpus, legacy_index, config=config
            ).discover(query)
            over_shards = MateDiscovery(
                workload.corpus, sharded, config=config
            ).discover(query)
            assert over_shards.result_tuples() == legacy.result_tuples()

    @pytest.mark.parametrize("lane", BUILD_LANES)
    def test_maintenance_removals_identical(self, workload, config, lane):
        legacy = build_index(workload.corpus, config=config, layout="legacy")
        columnar = build_in_lane(lane, workload.corpus, config=config)
        table_id = sorted(legacy.indexed_tables())[0]
        assert columnar.remove_column(table_id, 0) == legacy.remove_column(
            table_id, 0
        )
        assert columnar.remove_row(table_id, 0) == legacy.remove_row(table_id, 0)
        assert columnar.remove_table(table_id) == legacy.remove_table(table_id)
        assert sorted(columnar.values()) == sorted(legacy.values())
        assert sorted(columnar.iter_super_keys()) == sorted(
            legacy.iter_super_keys()
        )

    def test_mutations_invalidate_memoised_columns(self, config):
        from repro.datamodel import Table, TableCorpus

        corpus = TableCorpus(name="tiny")
        corpus.add_table(
            Table(table_id=0, name="t", columns=["a"], rows=[["x"], ["x"]])
        )
        index = build_index(corpus, config=config, layout="columnar")
        before = index.fetch(["x"])
        index.set_super_key(0, 1, 12345)
        after = index.fetch(["x"])
        assert before != after
        assert after[1].super_key == 12345
        index.add_posting("x", 0, 0, 1)
        assert len(index.fetch(["x"])) == len(after) + 1

    def test_invalid_layout_rejected(self):
        with pytest.raises(IndexError_):
            InvertedIndex(layout="rowwise")
        with pytest.raises(ConfigurationError):
            MateConfig(index_layout="rowwise")

    def test_legacy_index_has_no_posting_columns(self, legacy_index):
        with pytest.raises(IndexError_):
            legacy_index.posting_columns("anything")


class TestPackedPersistence:
    """The packed layout round-trips through every storage backend."""

    def test_payload_version_2_roundtrip(self, columnar_index):
        payload = index_to_payload(columnar_index)
        assert payload["format_version"] == 2
        assert payload["layout"] == "columnar"
        restored = index_from_payload(payload)
        assert restored.layout == "columnar"
        values = sorted(columnar_index.values())[:150]
        assert restored.fetch(values) == columnar_index.fetch(values)
        assert sorted(restored.iter_super_keys()) == sorted(
            columnar_index.iter_super_keys()
        )

    def test_payload_version_1_roundtrip(self, legacy_index):
        payload = index_to_payload(legacy_index)
        assert payload["format_version"] == 1
        restored = index_from_payload(payload)
        assert restored.layout == "legacy"
        values = sorted(legacy_index.values())[:150]
        assert restored.fetch(values) == legacy_index.fetch(values)

    def test_version_1_payload_loads_without_version_key(self, legacy_index):
        payload = index_to_payload(legacy_index)
        del payload["format_version"]
        del payload["layout"]
        restored = index_from_payload(payload)
        assert restored.layout == "legacy"
        values = sorted(legacy_index.values())[:50]
        assert restored.fetch(values) == legacy_index.fetch(values)

    def test_unsupported_version_rejected(self, columnar_index):
        payload = index_to_payload(columnar_index)
        payload["format_version"] = 99
        with pytest.raises(StorageError):
            index_from_payload(payload)

    def test_unknown_layout_rejected_as_storage_error(self, columnar_index):
        payload = index_to_payload(columnar_index)
        payload["layout"] = "fancy"
        with pytest.raises(StorageError):
            index_from_payload(payload)

    def test_json_file_roundtrip(self, columnar_index, tmp_path):
        path = save_index_json(columnar_index, tmp_path / "index.json")
        restored = load_index_json(path)
        values = sorted(columnar_index.values())[:100]
        assert restored.fetch(values) == columnar_index.fetch(values)
        with pytest.raises(StorageError):
            load_index_json(tmp_path / "missing.json")

    @pytest.mark.parametrize("layout", ["columnar", "legacy"])
    def test_memory_backend_roundtrip(self, workload, config, layout):
        index = build_index(workload.corpus, config=config, layout=layout)
        with InMemoryBackend() as backend:
            backend.save_index("main", index)
            restored = backend.load_index("main")
        assert restored.layout == layout
        values = sorted(index.values())[:100]
        assert restored.fetch(values) == index.fetch(values)

    @pytest.mark.parametrize("layout", ["columnar", "legacy"])
    def test_sqlite_backend_roundtrip(self, workload, config, layout, tmp_path):
        index = build_index(workload.corpus, config=config, layout=layout)
        db = tmp_path / f"{layout}.db"
        with SQLiteBackend(db) as backend:
            backend.save_index("main", index)
        with SQLiteBackend(db) as backend:
            assert backend.list_indexes() == ["main"]
            restored = backend.load_index("main")
        assert restored.layout == layout
        values = sorted(index.values())[:150]
        assert restored.fetch(values) == index.fetch(values)
        assert sorted(restored.iter_super_keys()) == sorted(
            index.iter_super_keys()
        )

    def test_sqlite_migrates_pre_columnar_databases(self, tmp_path):
        import sqlite3

        db = tmp_path / "old.db"
        connection = sqlite3.connect(db)
        # The pre-columnar schema: no layout / format_version columns.
        connection.executescript(
            """
            CREATE TABLE indexes (
                name TEXT PRIMARY KEY,
                hash_function TEXT NOT NULL,
                hash_size INTEGER NOT NULL
            );
            CREATE TABLE postings (
                index_name TEXT NOT NULL, value TEXT NOT NULL,
                table_id INTEGER NOT NULL, column_index INTEGER NOT NULL,
                row_index INTEGER NOT NULL
            );
            CREATE TABLE super_keys (
                index_name TEXT NOT NULL, table_id INTEGER NOT NULL,
                row_index INTEGER NOT NULL, super_key TEXT NOT NULL,
                PRIMARY KEY (index_name, table_id, row_index)
            );
            INSERT INTO indexes VALUES ('old', 'xash', 128);
            INSERT INTO postings VALUES ('old', 'ada', 0, 0, 0);
            INSERT INTO super_keys VALUES ('old', 0, 0, 'ff');
            """
        )
        connection.commit()
        connection.close()
        with SQLiteBackend(db) as backend:
            restored = backend.load_index("old")
            assert restored.layout == "legacy"
            assert restored.posting_list("ada")[0].table_id == 0
            assert restored.super_key(0, 0) == 0xFF
            # New columnar indexes coexist with the migrated metadata.
            fresh = InvertedIndex(layout="columnar")
            fresh.add_posting("lovelace", 1, 0, 0)
            fresh.set_super_key(1, 0, 0xAB)
            backend.save_index("new", fresh)
            reloaded = backend.load_index("new")
            assert reloaded.layout == "columnar"
            assert reloaded.fetch(["lovelace"]) == fresh.fetch(["lovelace"])

    @pytest.mark.parametrize("backend_factory", [InMemoryBackend, SQLiteBackend])
    def test_sharded_columnar_roundtrip(
        self, workload, config, backend_factory, tmp_path
    ):
        sharded = build_sharded_index(
            workload.corpus, num_shards=3, config=config, layout="columnar"
        )
        if backend_factory is SQLiteBackend:
            backend = backend_factory(tmp_path / "sharded.db")
        else:
            backend = backend_factory()
        with backend:
            save_sharded_index(backend, "main", sharded)
            loaded = load_sharded_index(backend, "main")
        assert loaded.layout == "columnar"
        assert loaded.shard_sizes() == sharded.shard_sizes()
        values = sorted(sharded.values())[:150]
        assert loaded.fetch(values) == sharded.fetch(values)

    def test_paged_store_fetch_batch_accounts_pages(self, columnar_index):
        store = PagedPostingStore(columnar_index, buffer_pool_pages=16)
        values = sorted(columnar_index.values())[:40]
        blocks = store.fetch_batch(values)
        assert [item for block in blocks for item in block] == (
            columnar_index.fetch(values)
        )
        assert store.accounting.fetches == 1
        assert store.accounting.items_returned == sum(
            len(block) for block in blocks
        )
        assert store.accounting.pages_read > 0


class TestCachingBlocks:
    def test_caching_index_serves_blocks(self, columnar_index):
        caching = CachingIndex(columnar_index, capacity=128)
        values = sorted(columnar_index.values())[:30]
        cold = caching.fetch_batch(values)
        warm = caching.fetch_batch(values)
        assert cold == columnar_index.fetch_batch(values)
        assert warm == cold
        assert all(isinstance(block, FetchBlock) for block in warm)
        assert caching.counters.misses == 30
        assert caching.counters.hits == 30

    def test_negative_blocks_cached(self, columnar_index):
        caching = CachingIndex(columnar_index, capacity=8)
        assert caching.fetch_batch(["not-in-the-index"]) == []
        assert caching.fetch_batch(["not-in-the-index"]) == []
        assert caching.counters.hits == 1

    def test_service_on_columnar_sharded_index(self, workload, config):
        index = build_sharded_index(
            workload.corpus, num_shards=2, config=config, layout="columnar"
        )
        service = DiscoveryService(workload.corpus, index, config=config)
        batch = service.discover_batch(list(workload.queries))
        for query, served in zip(workload.queries, batch):
            cold = MateDiscovery(
                workload.corpus,
                build_index(workload.corpus, config=config, layout="legacy"),
                config=config,
            ).discover(query)
            assert served.result_tuples() == cold.result_tuples()
