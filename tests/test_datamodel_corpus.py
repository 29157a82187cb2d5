"""Tests for repro.datamodel.corpus: TableCorpus and its statistics."""

import pytest

from repro.datamodel import Table, TableCorpus
from repro.exceptions import CorpusError, DataModelError


def make_corpus() -> TableCorpus:
    corpus = TableCorpus(name="test")
    corpus.add_table(
        Table(
            table_id=0,
            name="a",
            columns=["x", "y"],
            rows=[["1", "2"], ["3", "4"]],
        )
    )
    corpus.add_table(
        Table(table_id=1, name="b", columns=["x"], rows=[["1"], ["5"], [""]])
    )
    return corpus


class TestContainer:
    def test_len_iter_contains(self):
        corpus = make_corpus()
        assert len(corpus) == 2
        assert {t.table_id for t in corpus} == {0, 1}
        assert 0 in corpus and 7 not in corpus

    def test_get_table_and_missing(self):
        corpus = make_corpus()
        assert corpus.get_table(1).name == "b"
        with pytest.raises(CorpusError):
            corpus.get_table(99)

    def test_duplicate_id_rejected(self):
        corpus = make_corpus()
        with pytest.raises(CorpusError):
            corpus.add_table(Table(table_id=0, name="dup", columns=["z"], rows=[]))

    def test_remove_table(self):
        corpus = make_corpus()
        removed = corpus.remove_table(0)
        assert removed.name == "a"
        assert len(corpus) == 1
        with pytest.raises(CorpusError):
            corpus.remove_table(0)

    def test_create_table_assigns_next_id(self):
        corpus = make_corpus()
        table = corpus.create_table("c", ["z"], [["9"]])
        assert table.table_id == 2
        assert corpus.next_table_id() == 3

    def test_next_table_id_empty(self):
        assert TableCorpus().next_table_id() == 0


class TestAccess:
    def test_get_row_and_cell(self):
        corpus = make_corpus()
        assert corpus.get_row(0, 1) == ("3", "4")
        assert corpus.get_row(0, 0)[1] == "2"
        with pytest.raises(DataModelError):
            corpus.get_row(0, 9)

    def test_table_ids(self):
        assert make_corpus().table_ids() == [0, 1]


class TestStatistics:
    def test_statistics_counts(self):
        stats = make_corpus().statistics()
        assert stats.num_tables == 2
        assert stats.num_columns == 3
        assert stats.num_rows == 5
        assert stats.num_cells == 2 * 2 + 3 * 1
        # values: 1,2,3,4,5 ("" excluded)
        assert stats.num_unique_values == 5
        assert stats.avg_columns_per_table == pytest.approx(1.5)
        assert stats.avg_rows_per_table == pytest.approx(2.5)

    def test_unique_values_excludes_missing(self):
        assert make_corpus().unique_values() == {"1", "2", "3", "4", "5"}

    def test_average_columns_empty_corpus(self):
        assert TableCorpus().average_columns_per_table() == 0.0
        stats = TableCorpus().statistics()
        assert stats.num_tables == 0
        assert stats.avg_rows_per_table == 0.0
