"""Tests for column type inference (repro.lake.type_inference)."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.datamodel import Table
from repro.lake import ColumnType, classify_value, infer_column_type


class TestClassifyValue:
    def test_integer(self):
        assert classify_value("42") is ColumnType.INTEGER
        assert classify_value("-7") is ColumnType.INTEGER
        assert classify_value("+13") is ColumnType.INTEGER

    def test_float(self):
        assert classify_value("3.14") is ColumnType.FLOAT
        assert classify_value("-0.5") is ColumnType.FLOAT
        assert classify_value("1e9") is ColumnType.FLOAT
        assert classify_value(".25") is ColumnType.FLOAT

    def test_boolean(self):
        assert classify_value("true") is ColumnType.BOOLEAN
        assert classify_value("no") is ColumnType.BOOLEAN

    def test_numeric_zero_one_are_integers_not_booleans(self):
        assert classify_value("0") is ColumnType.INTEGER
        assert classify_value("1") is ColumnType.INTEGER

    def test_date(self):
        assert classify_value("2021-04-25") is ColumnType.DATE
        assert classify_value("25.04.2021") is ColumnType.DATE
        assert classify_value("4/25/21") is ColumnType.DATE

    def test_timestamp(self):
        assert classify_value("2021-04-25 13:45") is ColumnType.TIMESTAMP
        assert classify_value("13:45:10") is ColumnType.TIMESTAMP

    def test_code(self):
        assert classify_value("de-ni-h1") is ColumnType.CODE
        assert classify_value("ab1234") is ColumnType.CODE

    def test_text(self):
        assert classify_value("muhammad") is ColumnType.TEXT
        assert classify_value("bay ridge") is ColumnType.TEXT

    def test_empty(self):
        assert classify_value("") is ColumnType.EMPTY


class TestInferColumnType:
    def test_empty_column(self):
        assert infer_column_type([]) is ColumnType.EMPTY
        assert infer_column_type(["", "", ""]) is ColumnType.EMPTY

    def test_homogeneous_columns(self):
        assert infer_column_type(["1", "2", "3"]) is ColumnType.INTEGER
        assert infer_column_type(["a", "b", "c"]) is ColumnType.TEXT

    def test_dominant_type_wins_at_threshold(self):
        values = ["1"] * 9 + ["x"]
        assert infer_column_type(values) is ColumnType.INTEGER

    def test_integer_float_mix_widens_to_float(self):
        values = ["1", "2.5", "3", "4.5"]
        assert infer_column_type(values) is ColumnType.FLOAT

    def test_date_timestamp_mix_widens_to_timestamp(self):
        values = ["2021-04-25", "2021-04-25 13:45"] * 2
        assert infer_column_type(values) is ColumnType.TIMESTAMP

    def test_text_heavy_mix_is_text(self):
        values = ["alpha", "beta", "42", "delta", "3.5", "epsilon"]
        assert infer_column_type(values) is ColumnType.TEXT

    def test_incompatible_mix_is_mixed(self):
        values = ["2021-04-25", "true", "bay ridge", "2021-04-26", "false",
                  "cambridge"]
        assert infer_column_type(values) is ColumnType.MIXED

    def test_missing_values_are_ignored(self):
        assert infer_column_type(["", "7", "", "9"]) is ColumnType.INTEGER

    @given(st.lists(st.integers(min_value=-10**9, max_value=10**9), min_size=1))
    def test_property_integer_lists_always_integer(self, numbers):
        values = [str(n) for n in numbers]
        assert infer_column_type(values) is ColumnType.INTEGER


class TestTableColumns:
    def test_every_column_of_a_normalised_table(self):
        """Each column of a table (its values lower-cased and stripped on
        construction) gets its type from its values."""
        table = Table(
            table_id=1,
            name="people",
            columns=["name", "age", "salary", "joined", "active"],
            rows=[
                ["Muhammad", "34", "60000.5", "2020-01-02", "TRUE"],
                ["Ansel", " 41", "50000.0", "2019-06-30", "false"],
                ["Helmut", "58", "300000.25", "2018-11-11", "true "],
            ],
        )
        types = {
            column: infer_column_type(table.column_values(column))
            for column in table.columns
        }
        assert types == {
            "name": ColumnType.TEXT,
            "age": ColumnType.INTEGER,
            "salary": ColumnType.FLOAT,
            "joined": ColumnType.DATE,
            "active": ColumnType.BOOLEAN,
        }
