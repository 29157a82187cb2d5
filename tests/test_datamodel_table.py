"""Tests for repro.datamodel.table: Table, Row, QueryTable."""

import pytest

from repro.datamodel import (
    MISSING,
    QueryTable,
    Row,
    Table,
    normalize_value,
)
from repro.exceptions import DataModelError


class TestNormalizeValue:
    def test_strips_and_lowercases(self):
        assert normalize_value("  Muhammad ") == "muhammad"

    def test_numbers_become_strings(self):
        assert normalize_value(42) == "42"
        assert normalize_value(3.5) == "3.5"

    def test_none_becomes_missing(self):
        assert normalize_value(None) == MISSING

    def test_empty_string_is_missing(self):
        assert normalize_value("   ") == MISSING


class TestRow:
    def test_normalises_all_cells(self):
        row = Row(["  A ", None, 7])
        assert tuple(row) == ("a", "", "7")

    def test_is_a_tuple(self):
        row = Row(["x", "y"])
        assert isinstance(row, tuple)


class TestTable:
    def make(self) -> Table:
        return Table(
            table_id=3,
            name="people",
            columns=["first", "last", "country"],
            rows=[["Ada", "Lovelace", "UK"], ["Alan", "Turing", "UK"]],
        )

    def test_shape(self):
        table = self.make()
        assert table.num_rows == 2
        assert table.num_columns == 3
        assert len(table) == 2
        assert len(list(iter(table))) == 2

    def test_column_index_and_values(self):
        table = self.make()
        assert table.column_index("last") == 1
        assert table.column_values("country") == ["uk", "uk"]
        assert table.distinct_column_values("country") == {"uk"}
        assert table.cardinality("country") == 1
        assert table.cardinality("first") == 2

    def test_column_values_by_index(self):
        table = self.make()
        assert table.column_values(0) == ["ada", "alan"]

    def test_unknown_column_raises(self):
        with pytest.raises(DataModelError):
            self.make().column_index("nope")
        with pytest.raises(DataModelError):
            self.make().column_values(9)

    def test_projection_is_distinct_and_skips_all_missing(self):
        table = Table(
            table_id=0,
            name="t",
            columns=["a", "b"],
            rows=[["x", "y"], ["x", "y"], ["", ""]],
        )
        assert table.projection(["a", "b"]) == {("x", "y")}

    def test_missing_values_excluded_from_distinct(self):
        table = Table(
            table_id=0, name="t", columns=["a"], rows=[["x"], [None], ["x"]]
        )
        assert table.distinct_column_values("a") == {"x"}

    def test_validation_errors(self):
        with pytest.raises(DataModelError):
            Table(table_id=-1, name="x", columns=["a"], rows=[])
        with pytest.raises(DataModelError):
            Table(table_id=0, name="x", columns=[], rows=[])
        with pytest.raises(DataModelError):
            Table(table_id=0, name="x", columns=["a", "a"], rows=[])
        with pytest.raises(DataModelError):
            Table(table_id=0, name="x", columns=["a"], rows=[["1", "2"]])


class TestQueryTable:
    def make(self) -> QueryTable:
        table = Table(
            table_id=0,
            name="q",
            columns=["first", "last", "city", "salary"],
            rows=[
                ["Ada", "Lovelace", "London", "1"],
                ["Alan", "Turing", "London", "2"],
                ["Ada", "Lovelace", "London", "3"],
            ],
        )
        return QueryTable(table=table, key_columns=["first", "last"])

    def test_key_size(self):
        query = self.make()
        assert query.key_size == 2

    def test_key_tuples_are_distinct(self):
        query = self.make()
        assert query.key_tuples() == {("ada", "lovelace"), ("alan", "turing")}

    def test_column_cardinalities(self):
        assert self.make().column_cardinalities() == {"first": 2, "last": 2}

    def test_invalid_keys_raise(self):
        table = self.make().table
        with pytest.raises(DataModelError):
            QueryTable(table=table, key_columns=[])
        with pytest.raises(DataModelError):
            QueryTable(table=table, key_columns=["first", "first"])
        with pytest.raises(DataModelError):
            QueryTable(table=table, key_columns=["nope"])
