"""Tests for repro.index.maintenance: Section 5.4 edit operations.

Every test runs on an index from each lane of the bulk build: the per-cell
loop's plain index and the array passes' block-backed one, which thaws at
its first edit (``tests/helpers.py::BUILD_LANES``).
"""

import pytest

from repro.datamodel import Table, TableCorpus
from repro.exceptions import DataModelError
from repro.hashing import SuperKeyGenerator
from repro.index import IndexMaintainer
from tests.helpers import BUILD_LANES, build_in_lane


@pytest.fixture(params=BUILD_LANES)
def setup(request, config):
    corpus = TableCorpus(name="maintenance")
    corpus.add_table(
        Table(
            table_id=0,
            name="people",
            columns=["first", "last"],
            rows=[["ada", "lovelace"], ["alan", "turing"]],
        )
    )
    index = build_in_lane(request.param, corpus, config=config)
    generator = SuperKeyGenerator.from_name("xash", config)
    maintainer = IndexMaintainer(corpus, index, generator)
    return corpus, index, generator, maintainer


class TestInserts:
    def test_insert_table(self, setup):
        corpus, index, generator, maintainer = setup
        maintainer.insert_table(
            Table(table_id=5, name="new", columns=["city"], rows=[["berlin"]])
        )
        assert 5 in corpus
        assert index.posting_list_length("berlin") == 1
        assert index.super_key(5, 0) == generator.value_hash("berlin")
        assert maintainer.verify_consistency() == []

    def test_insert_row(self, setup):
        corpus, index, generator, maintainer = setup
        row_index = maintainer.insert_row(0, ["grace", "hopper"])
        assert row_index == 2
        assert corpus.get_row(0, 2) == ("grace", "hopper")
        assert index.posting_list_length("grace") == 1
        assert index.super_key(0, 2) == generator.row_super_key(("grace", "hopper"))
        assert maintainer.verify_consistency() == []

    def test_insert_column_ors_into_super_keys(self, setup):
        corpus, index, generator, maintainer = setup
        before = index.super_key(0, 0)
        maintainer.insert_column(0, "country", ["uk", "uk"])
        after = index.super_key(0, 0)
        assert after == before | generator.value_hash("uk")
        assert corpus.get_table(0).columns == ["first", "last", "country"]
        assert index.posting_list_length("uk") == 2
        assert maintainer.verify_consistency() == []

    def test_insert_column_validations(self, setup):
        _, _, _, maintainer = setup
        with pytest.raises(DataModelError):
            maintainer.insert_column(0, "first", ["x", "y"])
        with pytest.raises(DataModelError):
            maintainer.insert_column(0, "extra", ["only-one"])


class TestUpdates:
    def test_update_cell_rehashes_row(self, setup):
        corpus, index, generator, maintainer = setup
        maintainer.update_cell(0, 0, 1, "byron")
        assert corpus.get_cell(0, 0, 1) == "byron"
        assert index.posting_list_length("lovelace") == 0
        assert index.posting_list_length("byron") == 1
        assert index.super_key(0, 0) == generator.row_super_key(("ada", "byron"))
        assert maintainer.verify_consistency() == []

    def test_update_cell_validations(self, setup):
        _, _, _, maintainer = setup
        with pytest.raises(DataModelError):
            maintainer.update_cell(0, 9, 0, "x")
        with pytest.raises(DataModelError):
            maintainer.update_cell(0, 0, 9, "x")


class TestDeletes:
    def test_delete_table(self, setup):
        corpus, index, _, maintainer = setup
        maintainer.delete_table(0)
        assert 0 not in corpus
        assert index.num_posting_items() == 0
        assert maintainer.verify_consistency() == []

    def test_delete_row_shifts_following_rows(self, setup):
        corpus, index, generator, maintainer = setup
        maintainer.delete_row(0, 0)
        table = corpus.get_table(0)
        assert table.num_rows == 1
        assert table.rows[0] == ("alan", "turing")
        assert index.posting_list_length("ada") == 0
        assert index.super_key(0, 0) == generator.row_super_key(("alan", "turing"))
        assert maintainer.verify_consistency() == []

    def test_delete_column_triggers_rehash(self, setup):
        corpus, index, generator, maintainer = setup
        maintainer.delete_column(0, "last")
        table = corpus.get_table(0)
        assert table.columns == ["first"]
        assert index.posting_list_length("lovelace") == 0
        assert index.super_key(0, 0) == generator.value_hash("ada")
        assert maintainer.verify_consistency() == []

    def test_delete_row_validation(self, setup):
        _, _, _, maintainer = setup
        with pytest.raises(DataModelError):
            maintainer.delete_row(0, 10)


class TestConsistencyChecker:
    def test_detects_stale_super_key(self, setup):
        _, index, _, maintainer = setup
        index.set_super_key(0, 0, 12345)
        issues = maintainer.verify_consistency()
        assert any("stale super key" in issue for issue in issues)

    def test_detects_orphan_table(self, setup):
        corpus, index, _, maintainer = setup
        corpus.remove_table(0)  # bypass the maintainer on purpose
        issues = maintainer.verify_consistency()
        assert any("missing table" in issue for issue in issues)
