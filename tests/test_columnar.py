"""Tests for the columnar posting-list engine and its packed persistence."""

from __future__ import annotations

import copy

import pytest

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    ServiceConfig,
    ShardedMateDiscovery,
    build_index,
)
from repro.datagen import build_workload
from repro.datamodel import MISSING
from repro.exceptions import StorageError
from repro.hashing import SuperKeyGenerator
from repro.index import (
    ColumnarPostingList,
    FetchBlock,
    FetchedItem,
    IndexBuilder,
    IndexMaintainer,
    InvertedIndex,
    PostingListItem,
)
from repro.index.cache import CachingIndex
from repro.storage import (
    InMemoryBackend,
    PagedPostingStore,
    SQLiteBackend,
    index_from_payload,
    index_to_payload,
    load_index_json,
    save_index_json,
)
from tests.helpers import (
    BUILD_LANES,
    CellIndex,
    assert_results_byte_identical,
    build_in_lane,
    legacy_discover,
)


@pytest.fixture(scope="module")
def config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=100_000)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_10", seed=31, num_queries=3, corpus_scale=0.15)


@pytest.fixture(scope="module")
def columnar_index(workload, config):
    return build_index(workload.corpus, config=config)


def scanned_cells(corpus, config) -> dict[str, list[FetchedItem]]:
    """Every non-missing cell of ``corpus`` as a fetch record, per value, in
    table, row, column order, with its row's super key — the per-item
    reference the packed index must reproduce."""
    generator = SuperKeyGenerator.from_name("xash", config)
    cells: dict[str, list[FetchedItem]] = {}
    for table in corpus:
        for row_index, row in enumerate(table.rows):
            super_key = generator.row_super_key(row)
            for column_index, value in enumerate(row):
                if value != MISSING:
                    cells.setdefault(value, []).append(
                        FetchedItem(
                            value, table.table_id, column_index, row_index, super_key
                        )
                    )
    return cells


def scanned_super_keys(corpus, config) -> list[tuple[int, int, int]]:
    """``(table_id, row_index, super_key)`` of every row of ``corpus``, sorted."""
    generator = SuperKeyGenerator.from_name("xash", config)
    return sorted(
        (table.table_id, row_index, generator.row_super_key(row))
        for table in corpus
        for row_index, row in enumerate(table.rows)
    )


@pytest.fixture(scope="module")
def scanned(workload, config):
    return scanned_cells(workload.corpus, config)


def probe_values(scanned) -> list[str]:
    return sorted(scanned)[:300] + ["missing", ""]


class TestColumnarPostingList:
    def test_items(self):
        columns = ColumnarPostingList(
            [1, 1, 2, 2, 1], [0, 1, 0, 0, 0], [0, 0, 3, 4, 9], super_key_bytes=b""
        )
        assert len(columns) == 5
        assert [item.table_id for item in columns.items()] == [1, 1, 2, 2, 1]
        assert columns.items()[2] == PostingListItem(2, 0, 3)

    def test_views_carry_the_packed_slice(self, config):
        cells = CellIndex(hash_size=128)
        for row_index, key in enumerate([11, 22]):
            cells.add_posting("x", 0, 0, row_index)
            cells.keys[(0, row_index)] = key
        index = cells.to_index()
        packed = index.posting_columns("x")
        assert bytes(packed.super_key_bytes) == (11).to_bytes(16, "big") + (
            22
        ).to_bytes(16, "big")
        assert index.posting_columns("x") is packed  # memoised
        assert index.posting_columns("absent") is None

    def test_posting_columns_of_unequal_lengths_are_refused(self):
        from repro.storage.segment_block import SegmentBlock

        with pytest.raises(ValueError, match="unequal lengths"):
            SegmentBlock.from_postings("xash", 128, [("v", [1, 2], [0], [0, 1])], ())


class TestFetchAgainstACorpusScan:
    """The packed index answers what a per-item scan of the corpus does."""

    def test_fetch_matches_the_scan(self, columnar_index, scanned):
        values = probe_values(scanned)
        expected = [item for value in values for item in scanned.get(value, ())]
        assert columnar_index.fetch(values) == expected
        grouped: dict[int, list[FetchedItem]] = {}
        for item in expected:
            grouped.setdefault(item.table_id, []).append(item)
        assert columnar_index.fetch_grouped_by_table(values) == grouped

    def test_fetch_batch_flattens_to_fetch(self, columnar_index):
        values = sorted(columnar_index.values())[:200]
        flattened = [
            item
            for block in columnar_index.fetch_batch(values)
            for item in block
        ]
        assert flattened == columnar_index.fetch(values)

    def test_fetch_batch_blocks_match_the_scan(self, columnar_index, scanned):
        values = probe_values(scanned)
        blocks = columnar_index.fetch_batch(values)
        assert [block.value for block in blocks] == [
            value for value in values if value in scanned
        ]
        for block in blocks:
            assert block.items() == scanned[block.value]

    def test_posting_accessors_match_the_scan(
        self, workload, config, columnar_index, scanned
    ):
        assert len(columnar_index) == len(scanned)
        assert columnar_index.num_posting_items() == sum(
            len(items) for items in scanned.values()
        )
        assert sorted(columnar_index.iter_super_keys()) == scanned_super_keys(
            workload.corpus, config
        )
        for value in sorted(scanned)[:50]:
            assert columnar_index.posting_list(value) == [
                PostingListItem(item.table_id, item.column_index, item.row_index)
                for item in scanned[value]
            ]
            assert columnar_index.posting_list_length(value) == len(scanned[value])

    def test_discovery_matches_the_verbatim_loop(
        self, workload, config, columnar_index
    ):
        engine = MateDiscovery(workload.corpus, columnar_index, config=config)
        for query in workload.queries:
            assert_results_byte_identical(
                engine.discover(query), legacy_discover(engine, query)
            )

    def test_sharded_discovery_matches(self, workload, config, columnar_index):
        """Each table shard's index is the monolith's postings of its own
        tables, and the shards merge to the monolith's answers."""
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=3, config=config)
        values = sorted(columnar_index.values())[:200]
        whole = columnar_index.fetch(values)
        for shard, index in zip(sharded.shards, sharded.shard_indexes):
            tables = set(shard.table_ids())
            assert index.fetch(values) == [
                item for item in whole if item.table_id in tables
            ]
        for query in workload.queries[:1]:
            monolithic = MateDiscovery(
                workload.corpus, columnar_index, config=config
            ).discover(query)
            over_shards = sharded.discover(query)
            assert over_shards.result_tuples() == monolithic.result_tuples()

    @pytest.mark.parametrize("lane", BUILD_LANES)
    def test_maintenance_edits_match_the_scan(self, workload, config, lane):
        """An edited table moves to the end of every posting list: the index
        answers what a scan of the corpus in last-touched order does."""
        corpus = copy.deepcopy(workload.corpus)
        index = build_in_lane(lane, corpus, config=config)
        generator = SuperKeyGenerator.from_name("xash", config)
        maintainer = IndexMaintainer(corpus, index, generator)
        table, *rest = list(corpus)
        maintainer.delete_column(table.table_id, table.columns[0])
        maintainer.delete_row(table.table_id, 0)

        def assert_scans(tables):
            scanned = scanned_cells(tables, config)
            values = probe_values(scanned)
            assert index.fetch(values) == [
                item for value in values for item in scanned.get(value, ())
            ]
            assert sorted(index.values()) == sorted(scanned)
            assert sorted(index.iter_super_keys()) == scanned_super_keys(
                tables, config
            )

        assert_scans(rest + [table])
        maintainer.delete_table(table.table_id)
        assert_scans(rest)

    def test_a_replaced_block_drops_the_memoised_views(self, config):
        from repro.datamodel import Table, TableCorpus

        corpus = TableCorpus(name="tiny")
        corpus.add_table(
            Table(table_id=0, name="t", columns=["a"], rows=[["x"], ["x"]])
        )
        index = build_index(corpus, config=config)
        before = index.fetch(["x"])
        view = index.posting_columns("x")
        cells = CellIndex.of(index)
        cells.keys[(0, 1)] = 12345
        cells.add_posting("x", 0, 0, 1)
        index.replace_block(cells.to_block())
        after = index.fetch(["x"])
        assert index.posting_columns("x") is not view
        assert after[1].super_key == 12345
        assert len(after) == len(before) + 1


class TestOneLayout:
    """The packed layout is the only one: no config field, constructor or
    build function names a layout, so passing one is a plain TypeError."""

    #: Each entry point that took a ``layout`` (``index_layout``) before.
    LAYOUT_ARGUMENTS = {
        "MateConfig": lambda corpus: MateConfig(index_layout="columnar"),
        "InvertedIndex": lambda corpus: InvertedIndex(layout="columnar"),
        "IndexBuilder": lambda corpus: IndexBuilder(layout="columnar"),
        "build_index": lambda corpus: build_index(corpus, layout="columnar"),
    }

    @pytest.mark.parametrize("entry_point", sorted(LAYOUT_ARGUMENTS))
    def test_a_layout_argument_is_refused(self, workload, entry_point):
        with pytest.raises(TypeError, match="layout"):
            self.LAYOUT_ARGUMENTS[entry_point](workload.corpus)


class TestPackedPersistence:
    """The packed layout round-trips through every storage backend."""

    def test_payload_version_2_roundtrip(self, columnar_index):
        payload = index_to_payload(columnar_index)
        assert payload["format_version"] == 2
        assert payload["layout"] == "columnar"
        restored = index_from_payload(payload)
        values = sorted(columnar_index.values())[:150]
        assert restored.fetch(values) == columnar_index.fetch(values)
        assert sorted(restored.iter_super_keys()) == sorted(
            columnar_index.iter_super_keys()
        )

    def test_version_1_payload_is_refused_by_name(self):
        # The per-item payload older builds wrote, with and without the
        # version key (the oldest files have neither it nor a layout).
        payload = {
            "format_version": 1,
            "layout": "legacy",
            "hash_function": "xash",
            "hash_size": 128,
            "postings": {"ada": [[0, 0, 0]]},
            "super_keys": [[0, 0, "ff"]],
        }
        with pytest.raises(StorageError, match="format version 1"):
            index_from_payload(payload)
        del payload["format_version"]
        del payload["layout"]
        with pytest.raises(StorageError, match="format version 1"):
            index_from_payload(payload)

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

    def test_memory_backend_roundtrip(self, workload, config):
        index = build_index(workload.corpus, config=config)
        with InMemoryBackend() as backend:
            backend.save_index("main", index)
            restored = backend.load_index("main")
        values = sorted(index.values())[:100]
        assert restored.fetch(values) == index.fetch(values)
        assert sorted(restored.iter_super_keys()) == sorted(index.iter_super_keys())

    def test_sqlite_backend_roundtrip(self, workload, config, tmp_path):
        index = build_index(workload.corpus, config=config)
        db = tmp_path / "columnar.db"
        with SQLiteBackend(db) as backend:
            backend.save_index("main", index)
        with SQLiteBackend(db) as backend:
            assert backend.list_indexes() == ["main"]
            restored = backend.load_index("main")
        values = sorted(index.values())[:150]
        assert restored.fetch(values) == index.fetch(values)
        assert sorted(restored.iter_super_keys()) == sorted(index.iter_super_keys())

    def test_payload_refuses_an_oversize_key(self, columnar_index):
        """A key wider than the packed width (an older build could store
        one) is refused by name, not loaded."""
        payload = index_to_payload(columnar_index)
        table_id, row_index, _ = payload["super_keys"][0]
        payload["super_keys"][0][2] = format(1 << 300, "x")
        with pytest.raises(
            StorageError, match=f"table {table_id} row {row_index} is 301 bits wide"
        ):
            index_from_payload(payload)

    def test_sqlite_refuses_an_oversize_key(self, columnar_index, tmp_path):
        db = tmp_path / "oversize.db"
        with SQLiteBackend(db) as backend:
            backend.save_index("main", columnar_index)
            table_id, row_index, _ = next(columnar_index.iter_super_keys())
            with backend._connection as connection:
                connection.execute(
                    "UPDATE super_keys SET super_key = ? WHERE index_name = 'main' "
                    "AND table_id = ? AND row_index = ?",
                    (format(1 << 300, "x"), table_id, row_index),
                )
            with pytest.raises(
                StorageError,
                match=f"table {table_id} row {row_index} is 301 bits wide",
            ):
                backend.load_index("main")

    def test_saving_a_bulk_built_index_slices_no_views(
        self, workload, config, tmp_path
    ):
        """Saving reads the block's offsets; nothing is memoised per value,
        and what is written equals the save of the loop lane's index."""
        import sqlite3
        from contextlib import closing

        def sliced_nothing(index) -> bool:
            return not index._state.views

        written = {}
        for lane in ("block", "loop"):
            index = build_in_lane(lane, workload.corpus, config=config)
            payload_path = save_index_json(index, tmp_path / f"{lane}.json")
            assert sliced_nothing(index)
            db = tmp_path / f"{lane}.db"
            with SQLiteBackend(db) as backend:
                backend.save_index("main", index)
            assert sliced_nothing(index)
            with closing(sqlite3.connect(db)) as connection:
                rows = [
                    connection.execute(f"SELECT * FROM {table} ORDER BY rowid")
                    .fetchall()
                    for table in ("indexes", "posting_columns", "super_keys")
                ]
            written[lane] = (payload_path.read_bytes(), rows)
        assert written["block"] == written["loop"]

    #: What older builds left in a SQLite file: a database from before the
    #: layout / format_version columns, and a format version 1 index row.
    OLD_DATABASES = {
        "pre-columnar": """
            CREATE TABLE indexes (
                name TEXT PRIMARY KEY,
                hash_function TEXT NOT NULL,
                hash_size INTEGER NOT NULL
            );
            INSERT INTO indexes VALUES ('old', 'xash', 128);
        """,
        "legacy row": """
            CREATE TABLE indexes (
                name TEXT PRIMARY KEY,
                hash_function TEXT NOT NULL,
                hash_size INTEGER NOT NULL,
                layout TEXT NOT NULL DEFAULT 'legacy',
                format_version INTEGER NOT NULL DEFAULT 1
            );
            INSERT INTO indexes VALUES ('old', 'xash', 128, 'legacy', 1);
        """,
    }

    @pytest.mark.parametrize("old", sorted(OLD_DATABASES))
    def test_sqlite_refuses_format_version_1_by_name(self, tmp_path, old):
        import sqlite3

        db = tmp_path / "old.db"
        connection = sqlite3.connect(db)
        connection.executescript(
            self.OLD_DATABASES[old]
            + """
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
            INSERT INTO postings VALUES ('old', 'ada', 0, 0, 0);
            INSERT INTO super_keys VALUES ('old', 0, 0, 'ff');
            """
        )
        connection.commit()
        connection.close()
        with SQLiteBackend(db) as backend:
            with pytest.raises(
                StorageError, match="format version 1, layout 'legacy'"
            ):
                backend.load_index("old")
            # A new index saves and loads beside the refused one.
            cells = CellIndex()
            cells.add_posting("lovelace", 1, 0, 0)
            cells.keys[(1, 0)] = 0xAB
            fresh = cells.to_index()
            backend.save_index("new", fresh)
            reloaded = backend.load_index("new")
            assert reloaded.fetch(["lovelace"]) == fresh.fetch(["lovelace"])

    @pytest.mark.parametrize("backend_factory", [InMemoryBackend, SQLiteBackend])
    def test_sharded_columnar_roundtrip(
        self, workload, config, backend_factory, tmp_path
    ):
        """A table shard's index, whose table ids have gaps, saves and loads
        whole on both backends."""
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=3, config=config)
        if backend_factory is SQLiteBackend:
            backend = backend_factory(tmp_path / "sharded.db")
        else:
            backend = backend_factory()
        with backend:
            for position, index in enumerate(sharded.shard_indexes):
                backend.save_index(f"shard{position}", index)
            loaded = [
                backend.load_index(f"shard{position}")
                for position in range(sharded.num_shards)
            ]
        for index, restored in zip(sharded.shard_indexes, loaded):
            values = sorted(index.values())[:150] + ["never indexed"]
            assert restored.fetch(values) == index.fetch(values)
            assert restored.indexed_tables() == index.indexed_tables()
            assert sorted(restored.iter_super_keys()) == sorted(
                index.iter_super_keys()
            )

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

    def test_service_on_columnar_sharded_index(
        self, workload, config, columnar_index
    ):
        # A cached session's "sharded" batch answers what a cold engine does.
        with DiscoverySession(
            workload.corpus,
            columnar_index,
            config=config,
            service_config=ServiceConfig(num_shards=2, cache_capacity=256),
        ) as session:
            assert isinstance(session.index, CachingIndex)
            batch = session.discover_batch(
                [
                    DiscoveryRequest(query=query, engine="sharded")
                    for query in workload.queries
                ]
            )
        cold = MateDiscovery(workload.corpus, columnar_index, config=config)
        for query, served in zip(workload.queries, batch):
            assert served.result_tuples() == cold.discover(query).result_tuples()
