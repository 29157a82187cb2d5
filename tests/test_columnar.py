"""Tests for the columnar posting-list engine and its packed persistence."""

from __future__ import annotations

import sqlite3

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
from repro.datamodel import MISSING, TableCorpus
from repro.engine_sql import build_accelerator, key_width
from repro.engine_sql.accelerator import split_limbs
from repro.hashing import SuperKeyGenerator
from repro.ingest import LiveIndex
from repro.index import IndexBuilder, InvertedIndex
from repro.storage import load_segment, write_segment
from tests.helpers import (
    CellIndex,
    FetchedItem,
    assert_results_byte_identical,
    block_items,
    build_in_lane,
    fetch_items,
    legacy_discover,
    replace_table,
    row_keys,
    without_column,
    without_row,
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


class TestFetchBlocks:
    def test_blocks_carry_the_packed_slice(self, config):
        cells = CellIndex(hash_size=128)
        for row_index, key in enumerate([11, 22]):
            cells.add_posting("x", 0, 0, row_index)
            cells.keys[(0, row_index)] = key
        index = cells.to_index()
        (packed,) = index.fetch_batch(["x"])
        assert bytes(packed.super_key_bytes) == (11).to_bytes(16, "big") + (
            22
        ).to_bytes(16, "big")
        # The value's block is memoised: a second fetch returns it again.
        (again,) = index.fetch_batch(["x"])
        assert again is packed
        assert index.fetch_batch(["absent"]) == []

    def test_posting_columns_of_unequal_lengths_are_refused(self):
        from repro.storage.segment_block import SegmentBlock

        with pytest.raises(ValueError, match="unequal lengths"):
            SegmentBlock.from_postings("xash", 128, [("v", [1, 2], [0], [0, 1])], ())


class TestFetchAgainstACorpusScan:
    """The packed index answers what a per-item scan of the corpus does."""

    def test_fetch_matches_the_scan(self, columnar_index, scanned):
        values = probe_values(scanned)
        expected = [item for value in values for item in scanned.get(value, ())]
        assert fetch_items(columnar_index, values) == expected

    def test_fetch_batch_blocks_match_the_scan(self, columnar_index, scanned):
        values = probe_values(scanned)
        blocks = columnar_index.fetch_batch(values)
        assert [block.value for block in blocks] == [
            value for value in values if value in scanned
        ]
        for block in blocks:
            assert block_items(block) == scanned[block.value]

    def test_posting_accessors_match_the_scan(
        self, workload, config, columnar_index, scanned
    ):
        assert len(columnar_index) == len(scanned)
        assert columnar_index.num_posting_items() == sum(
            len(items) for items in scanned.values()
        )
        assert sorted(row_keys(columnar_index)) == scanned_super_keys(
            workload.corpus, config
        )
        values = sorted(scanned)[:50]
        assert columnar_index.posting_lengths(values) == [
            len(scanned[value]) for value in values
        ]

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
        whole = fetch_items(columnar_index, values)
        for shard, index in zip(sharded.shards, sharded.shard_indexes):
            tables = set(shard.table_ids())
            assert fetch_items(index, values) == [
                item for item in whole if item.table_id in tables
            ]
        for query in workload.queries[:1]:
            monolithic = MateDiscovery(
                workload.corpus, columnar_index, config=config
            ).discover(query)
            over_shards = sharded.discover(query)
            assert over_shards.result_tuples() == monolithic.result_tuples()

    @pytest.mark.parametrize("sealed", [False, True], ids=["buffer", "sealed"])
    def test_live_edits_match_the_scan(self, workload, config, sealed):
        """An edited table, removed and ingested again through the session,
        moves to the end of every posting list: the live index answers what
        a scan of the corpus in last-touched order does."""
        live = LiveIndex(config=config)
        session = DiscoverySession(TableCorpus(name="edited"), live, config=config)
        for table in workload.corpus:
            session.ingest(table)
        if sealed:
            live.seal()
        table, *rest = list(workload.corpus)
        replace_table(session, without_column(table, table.columns[0]))
        replace_table(session, without_row(session.corpus.get_table(table.table_id), 0))

        def assert_scans(tables):
            scanned = scanned_cells(tables, config)
            values = probe_values(scanned)
            assert fetch_items(live, values) == [
                item for value in values for item in scanned.get(value, ())
            ]
            snapshot = live.snapshot()
            assert sorted(snapshot.block.values) == sorted(scanned)
            assert sorted(row_keys(snapshot)) == scanned_super_keys(
                tables, config
            )

        assert_scans(rest + [session.corpus.get_table(table.table_id)])
        session.remove(table.table_id)
        assert_scans(rest)
        session.close()


class TestAcceleratorScan:
    """The SQL accelerator is a full scan of the block in storage order: the
    rows a per-item loop over the fetched postings writes, in that order."""

    @pytest.mark.parametrize("hash_size", [128, 256])
    def test_rows_are_the_per_item_fetch(self, workload, hash_size):
        index = build_index(workload.corpus, config=MateConfig(hash_size=hash_size))
        width = key_width(hash_size)
        expected = []
        for value in index.values():
            for pos, item in enumerate(fetch_items(index, [value])):
                limbs = split_limbs(item.super_key) if hash_size <= 128 else (None,) * 2
                expected.append(
                    (value, pos, item.table_id, item.column_index, item.row_index,
                     item.super_key.to_bytes(width, "big"), *limbs)
                )
        connection = sqlite3.connect(":memory:")
        try:
            assert build_accelerator(connection, index) == len(expected)
            assert connection.execute(
                "SELECT value, pos, table_id, column_index, row_index, super_key, "
                "super_key_hi, super_key_lo FROM pushdown_postings ORDER BY rowid"
            ).fetchall() == expected
        finally:
            connection.close()


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
    """The packed layout round-trips through its one file format, ``.seg``."""

    def test_segment_roundtrip(self, columnar_index, tmp_path):
        path = write_segment(columnar_index, tmp_path / "index.seg", fsync=False)
        restored = load_segment(path)
        try:
            values = sorted(columnar_index.values())[:150]
            assert fetch_items(restored, values) == fetch_items(columnar_index, values)
            assert row_keys(restored) == row_keys(columnar_index)
        finally:
            restored.close()

    def test_writing_a_bulk_built_index_slices_no_views(
        self, workload, config, tmp_path
    ):
        """Writing reads the block's offsets; nothing is memoised per value,
        and what is written equals the write of the loop lane's index."""
        written = {}
        for lane in ("block", "loop"):
            index = build_in_lane(lane, workload.corpus, config=config)
            path = write_segment(index, tmp_path / f"{lane}.seg", fsync=False)
            assert not index._state.memo[1]
            written[lane] = path.read_bytes()
        assert written["block"] == written["loop"]

    def test_sharded_columnar_roundtrip(self, workload, config, tmp_path):
        """A table shard's index, whose table ids have gaps, writes and maps
        whole."""
        sharded = ShardedMateDiscovery(workload.corpus, num_shards=3, config=config)
        for position, index in enumerate(sharded.shard_indexes):
            restored = load_segment(
                write_segment(index, tmp_path / f"shard{position}.seg", fsync=False)
            )
            try:
                values = sorted(index.values())[:150] + ["never indexed"]
                assert fetch_items(restored, values) == fetch_items(index, values)
                assert restored.indexed_tables() == index.indexed_tables()
                assert row_keys(restored) == row_keys(index)
            finally:
                restored.close()


class TestSessionOnBlocks:
    def test_service_on_columnar_sharded_index(
        self, workload, config, columnar_index
    ):
        # A session's "sharded" batch answers what a cold engine does.
        with DiscoverySession(
            workload.corpus,
            columnar_index,
            config=config,
            service_config=ServiceConfig(num_shards=2),
        ) as session:
            batch = session.discover_batch(
                [
                    DiscoveryRequest(query=query, engine="sharded")
                    for query in workload.queries
                ]
            )
        cold = MateDiscovery(workload.corpus, columnar_index, config=config)
        for query, served in zip(workload.queries, batch):
            assert served.result_tuples() == cold.discover(query).result_tuples()
