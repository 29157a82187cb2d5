"""Tests for repro.index: posting lists, the inverted index, and the builder."""

import pytest

from repro import MateConfig, build_index
from repro.datamodel import Table, TableCorpus
from repro.exceptions import IndexClosedError, IndexError_
from repro.hashing import SuperKeyGenerator
from repro.index import (
    IndexBuilder,
    InvertedIndex,
    storage_report,
)

from tests.helpers import (
    BUILD_LANES,
    CellIndex,
    build_in_lane,
    fetch_grouped_by_table,
    fetch_items,
    row_keys,
)


def small_corpus() -> TableCorpus:
    corpus = TableCorpus(name="idx-test")
    corpus.add_table(
        Table(
            table_id=0,
            name="people",
            columns=["first", "last"],
            rows=[["ada", "lovelace"], ["alan", "turing"], ["ada", "byron"]],
        )
    )
    corpus.add_table(
        Table(
            table_id=1,
            name="cities",
            columns=["city", "country"],
            rows=[["london", "uk"], ["turing", "fictional"]],
        )
    )
    return corpus


def hand_built(postings=(), keys=()) -> InvertedIndex:
    """An index over the given ``(value, table, column, row)`` postings and
    ``(table, row, key)`` keys, through the per-cell reference."""
    cells = CellIndex()
    for posting in postings:
        cells.add_posting(*posting)
    for table_id, row_index, key in keys:
        cells.keys[(table_id, row_index)] = key
    return cells.to_index()


class TestInvertedIndex:
    def test_add_and_lookup(self):
        index = hand_built(
            [("ada", 0, 0, 0), ("ada", 0, 0, 2)], [(0, 0, 0b1), (0, 2, 0b10)]
        )
        assert len(index) == 1
        assert index.num_posting_items() == 2
        assert index.posting_lengths(["ada", "missing"]) == [2, 0]
        assert fetch_items(index, ["missing"]) == []
        assert index.super_key(0, 2) == 0b10
        assert [(table, row) for table, row, _key in row_keys(index)] == [(0, 0), (0, 2)]

    def test_missing_values_not_indexed(self):
        index = hand_built([("", 0, 0, 0)])
        assert len(index) == 0

    def test_super_key_missing_raises(self):
        with pytest.raises(IndexError_):
            hand_built().super_key(0, 0)

    def test_fetch_returns_super_keys(self):
        index = hand_built([("ada", 0, 0, 0)], [(0, 0, 0b11)])
        fetched = fetch_items(index, ["ada", "ada", "missing", ""])
        assert len(fetched) == 1
        assert fetched[0].super_key == 0b11

    def test_fetch_grouped_by_table(self):
        index = hand_built(
            [("x", 0, 0, 0), ("x", 1, 0, 0), ("y", 1, 1, 3)],
            [(0, 0, 0), (1, 0, 0), (1, 3, 0)],
        )
        grouped = fetch_grouped_by_table(index, ["x", "y"])
        assert set(grouped) == {0, 1}
        assert len(grouped[1]) == 2

    def test_posting_lengths_count_every_probe(self):
        index = hand_built([("x", 0, 0, 0), ("x", 0, 0, 1)], [(0, 0, 0), (0, 1, 0)])
        assert index.posting_lengths(["x", "x", "z", ""]) == [2, 2, 0, 0]
        assert index.posting_lengths([]) == []

    def test_posting_without_a_row_is_refused(self):
        # A posting names its row by its ordinal in the row table.
        with pytest.raises(ValueError, match="table 1 row 3 has no row"):
            hand_built([("x", 0, 0, 0), ("y", 1, 1, 3)], [(0, 0, 0)])

    def test_row_keys_in_row_table_order(self):
        index = hand_built(keys=[(2, 3, 9), (0, 0, 5), (1, 1, 1 << 100)])
        assert row_keys(index) == [
            (0, 0, 5),
            (1, 1, 1 << 100),
            (2, 3, 9),
        ]
        assert index.indexed_tables() == {0, 1, 2} and index.num_rows() == 3


class TestIndexBuilder:
    def test_build_indexes_every_non_missing_cell(self, config):
        corpus = small_corpus()
        builder = IndexBuilder(config=config)
        index = builder.build(corpus)
        total_cells = sum(t.num_rows * t.num_columns for t in corpus)
        assert index.num_posting_items() == total_cells
        assert index.num_rows() == sum(t.num_rows for t in corpus)
        assert builder.last_report is not None
        assert builder.last_report.num_tables == 2
        assert builder.last_report.build_seconds >= 0.0

    def test_super_keys_match_generator(self, config):
        corpus = small_corpus()
        index = build_index(corpus, config=config)
        generator = SuperKeyGenerator.from_name("xash", config)
        for table in corpus:
            for row_index, row in enumerate(table.rows):
                assert index.super_key(table.table_id, row_index) == generator.row_super_key(row)

    def test_value_appearing_in_two_tables(self, config):
        index = build_index(small_corpus(), config=config)
        postings = fetch_items(index, ["turing"])
        assert {item.table_id for item in postings} == {0, 1}

    def test_build_with_other_hash_function(self):
        config = MateConfig(hash_size=128)
        index = build_index(small_corpus(), config=config, hash_function_name="bloom")
        assert index.hash_function_name == "bloom"


class TestStorageReport:
    def test_report_consistency(self, config):
        index = build_index(small_corpus(), config=config)
        report = storage_report(index)
        assert report.num_posting_items == index.num_posting_items()
        assert report.super_key_bytes_per_row <= report.super_key_bytes_per_cell
        assert report.hash_size == 128


class TestIndexClose:
    """A closed index raises the typed IndexClosedError, from either lane of
    the build."""

    @pytest.mark.parametrize("lane", BUILD_LANES)
    def test_fetch_after_close_raises_typed_error(self, config, lane):
        index = build_in_lane(lane, small_corpus(), config=config)
        index.close()
        index.close()  # idempotent
        with pytest.raises(IndexClosedError):
            index.fetch_batch(["ada"])

    @pytest.mark.parametrize(
        "read",
        [
            lambda index: index.posting_lengths(["ada"]),
            lambda index: index.super_key(0, 0),
            lambda index: index.indexed_tables(),
            lambda index: index.num_posting_items(),
            lambda index: index.num_rows(),
            lambda index: list(index.values()),
            len,
            lambda index: index.visible_counts({0}),
        ],
        ids=[
            "posting_lengths", "super_key", "indexed_tables",
            "num_posting_items", "num_rows", "values", "len", "visible_counts",
        ],
    )
    def test_every_read_after_close_raises_typed_error(self, read):
        """A closed index refuses every read: none answers as if the index
        were empty."""
        index = build_index(small_corpus(), config=MateConfig(hash_size=128))
        read(index)
        index.close()
        with pytest.raises(IndexClosedError):
            read(index)

    @pytest.mark.parametrize("lane", BUILD_LANES)
    def test_the_block_after_close_raises_typed_error(self, config, lane):
        index = build_in_lane(lane, small_corpus(), config=config)
        index.close()
        with pytest.raises(IndexClosedError):
            index.block

    def test_closed_error_is_an_index_error(self):
        # Callers catching the broad IndexError_ keep working.
        assert issubclass(IndexClosedError, IndexError_)
