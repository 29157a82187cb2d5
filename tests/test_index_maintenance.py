"""Section 5.4 edit operations through the one write path: the session over
a :class:`~repro.ingest.LiveIndex`.

Inserting or deleting a table is one ``DiscoverySession.ingest`` /
``remove``; every finer edit (insert / delete row, insert / delete column,
update cell) is ``remove`` of the table followed by ``ingest`` of its edited
copy (``tests/helpers.py::replace_table``), so the rebuilt rows get fresh
super keys — the paper's rehash.  Every test runs on an in-memory
``LiveIndex(config)`` and on a directory whose tables were sealed before the
edit (the edit masks their segment copies with a tombstone) and which is
then sealed, merged, closed and reopened.  Each time, fetches, answers,
mappings and every ``DiscoveryCounters`` field equal a bulk build of the
edited corpus (``tests/helpers.py::assert_live_matches_bulk``).
"""

import pytest

from repro import DiscoveryRequest, DiscoverySession, LiveIndex
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.exceptions import DataModelError, IndexError_
from repro.hashing import SuperKeyGenerator
from repro.plan import PlannerOptions
from repro.sketch import SketchOptions
from tests.helpers import (
    assert_live_matches_bulk,
    edited,
    fetch_items,
    replace_table,
    with_cell,
    with_column,
    with_row,
    without_column,
    without_row,
)

VALUES = [
    "ada", "lovelace", "alan", "turing", "grace", "hopper", "london",
    "cambridge", "arlington", "byron", "berlin", "uk", "x", "absent",
]

QUERIES = [
    QueryTable(
        table=Table(
            99,
            "q",
            ["first", "last"],
            [["ada", "lovelace"], ["alan", "turing"], ["grace", "hopper"]],
        ),
        key_columns=["first", "last"],
    ),
    QueryTable(
        table=Table(98, "q", ["last", "city"], [["lovelace", "london"], ["hopper", "uk"]]),
        key_columns=["last", "city"],
    ),
]


class Lake:
    """A session over a live index holding two tables, in memory or in a
    directory."""

    def __init__(self, config, directory=None):
        self.config = config
        self.directory = directory
        self.generator = SuperKeyGenerator.from_name("xash", config)
        self.corpus = TableCorpus(name="maintenance")
        self.open()
        self.session.ingest(
            Table(0, "people", ["first", "last"], [["ada", "lovelace"], ["alan", "turing"]])
        )
        self.session.ingest(
            Table(
                1,
                "places",
                ["first", "last", "city"],
                [["ada", "lovelace", "london"], ["grace", "hopper", "arlington"]],
            )
        )
        if directory is not None:
            self.live.seal()

    def open(self) -> None:
        if self.directory is None:
            self.live = LiveIndex(config=self.config)
        else:
            self.live = LiveIndex.open(self.directory, config=self.config, fsync=False)
        self.session = DiscoverySession(self.corpus, self.live, config=self.config)

    def close(self) -> None:
        self.session.close()
        self.live.close()

    def table(self, table_id: int) -> Table:
        return self.corpus.get_table(table_id)

    def items(self, value: str, table_id: int) -> list:
        return [item for item in fetch_items(self.live, [value]) if item.table_id == table_id]

    def key(self, table_id: int, row_index: int) -> int:
        (key,) = {
            item.super_key
            for item in fetch_items(self.live, VALUES)
            if (item.table_id, item.row_index) == (table_id, row_index)
        }
        return key

    def check(self) -> None:
        """Against a bulk build; a directory also after seal, merge and a
        reopen."""
        assert_live_matches_bulk(self.session, self.live, QUERIES, VALUES)
        if self.directory is None:
            return
        self.live.seal()
        self.live.merge()
        assert self.live.num_segments == 1
        self.close()
        self.open()
        assert_live_matches_bulk(self.session, self.live, QUERIES, VALUES)


@pytest.fixture(params=["memory", "directory"])
def lake(request, config, tmp_path):
    lake = Lake(config, tmp_path / "live" if request.param == "directory" else None)
    yield lake
    lake.close()


class TestInserts:
    def test_insert_table(self, lake):
        lake.session.ingest(Table(5, "new", ["city"], [["berlin"]]))
        assert 5 in lake.corpus
        assert lake.live.posting_lengths(["berlin"]) == [1]
        assert lake.key(5, 0) == lake.generator.value_hash("berlin")
        lake.check()

    def test_insert_row(self, lake):
        replace_table(lake.session, with_row(lake.table(0), ["grace", "hopper"]))
        assert lake.corpus.get_row(0, 2) == ("grace", "hopper")
        assert [item.row_index for item in lake.items("grace", 0)] == [2]
        assert lake.key(0, 2) == lake.generator.row_super_key(("grace", "hopper"))
        lake.check()

    def test_insert_column_ors_into_super_keys(self, lake):
        before = lake.key(0, 0)
        replace_table(lake.session, with_column(lake.table(0), "country", ["uk", "uk"]))
        assert lake.key(0, 0) == before | lake.generator.value_hash("uk")
        assert lake.table(0).columns == ["first", "last", "country"]
        assert lake.live.posting_lengths(["uk"]) == [2]
        lake.check()


class TestUpdates:
    def test_update_cell_rehashes_row(self, lake):
        replace_table(lake.session, with_cell(lake.table(0), 0, 1, "byron"))
        assert lake.corpus.get_row(0, 0)[1] == "byron"
        assert lake.items("lovelace", 0) == []
        assert lake.live.posting_lengths(["byron"]) == [1]
        assert lake.key(0, 0) == lake.generator.row_super_key(("ada", "byron"))
        lake.check()

    def test_update_a_key_cell_changes_the_answer(self, lake):
        replace_table(lake.session, with_cell(lake.table(1), 1, 2, "uk"))
        result = lake.session.discover(DiscoveryRequest(query=QUERIES[1], engine="live"))
        assert (1, 2) in result.result_tuples()
        lake.check()


class TestDeletes:
    def test_delete_table(self, lake):
        lake.session.remove(0)
        assert lake.live.indexed_tables() == {1}
        assert all(item.table_id == 1 for item in fetch_items(lake.live, VALUES))
        lake.check()

    def test_delete_row_shifts_following_rows(self, lake):
        replace_table(lake.session, without_row(lake.table(0), 0))
        assert lake.table(0).rows == [("alan", "turing")]
        assert lake.items("ada", 0) == []
        assert lake.key(0, 0) == lake.generator.row_super_key(("alan", "turing"))
        lake.check()

    def test_delete_column_triggers_rehash(self, lake):
        replace_table(lake.session, without_column(lake.table(0), "last"))
        assert lake.table(0).columns == ["first"]
        assert lake.items("lovelace", 0) == []
        assert lake.key(0, 0) == lake.generator.value_hash("ada")
        lake.check()


class TestEditSemantics:
    def test_edits_in_sequence(self, lake):
        """Every edit kind in turn, the same table touched again and again:
        the edited tables end the ingest order in last-touched order."""
        session = lake.session
        replace_table(session, with_row(lake.table(1), ["alan", "turing", "cambridge"]))
        session.ingest(Table(2, "late", ["a", "b"], [["grace", "hopper"]]))
        replace_table(session, with_column(lake.table(0), "city", ["london", "x"]))
        replace_table(session, with_cell(lake.table(1), 0, 2, "berlin"))
        replace_table(session, without_row(lake.table(0), 1))
        replace_table(session, without_column(lake.table(1), "first"))
        session.remove(2)
        sequences = lake.live.table_sequences()
        assert sorted(sequences, key=sequences.get) == [0, 1]
        lake.check()

    def test_an_edit_shows_at_once_past_memoised_blocks(self, lake):
        lake.live.seal()
        assert [item.row_index for item in lake.items("alan", 0)] == [1]
        lake.live.fetch_batch(["alan"])  # memoised in the segment
        replace_table(lake.session, with_cell(lake.table(0), 0, 0, "alan"))
        assert [item.row_index for item in lake.items("alan", 0)] == [0, 1]
        lake.check()

    def test_a_request_between_remove_and_ingest_misses_the_table(self, lake):
        """The edit is two writes, not one: a request between them answers
        as if the table were deleted."""
        request = DiscoveryRequest(query=QUERIES[0], engine="live")
        assert 0 in dict(lake.session.discover(request).result_tuples())
        edited = with_row(lake.table(0), ["grace", "hopper"])
        lake.session.remove(0)
        assert 0 not in dict(lake.session.discover(request).result_tuples())
        lake.session.ingest(edited)
        assert (0, 3) in lake.session.discover(request).result_tuples()


class TestRefusals:
    """An edit the write path cannot make fails before it writes anything:
    the lake still matches a bulk build of its unedited tables."""

    def test_an_invalid_copy_is_refused_before_the_remove(self, lake):
        table = lake.table(0)
        with pytest.raises(DataModelError, match="duplicate column"):
            with_column(table, "first", ["x", "x"])
        with pytest.raises(DataModelError, match="row 2 has 1 cells"):
            edited(table, rows=[*table.rows, ["x"]])
        with pytest.raises(DataModelError, match="at least one column"):
            without_column(without_column(table, "last"), "first")
        assert lake.table(0) is table
        assert lake.live.indexed_tables() == {0, 1}
        lake.check()

    def test_an_ingest_over_a_live_table_is_refused(self, lake):
        """Without the ``remove`` first, the edited copy is refused and the
        corpus keeps the table the index serves."""
        table = lake.table(0)
        with pytest.raises(IndexError_, match="table 0 is already live"):
            lake.session.ingest(with_row(table, ["grace", "hopper"]))
        assert lake.table(0) is table
        assert [item.row_index for item in lake.items("grace", 0)] == []
        lake.check()

    def test_removing_a_table_that_is_not_live_changes_nothing(self, lake):
        lake.session.remove(0)
        sequences = lake.live.table_sequences()
        tombstones = dict(lake.live.tombstones)
        assert lake.session.remove(0) == 0
        assert lake.session.remove(7) == 0
        assert lake.live.table_sequences() == sequences
        assert lake.live.tombstones == tombstones
        lake.check()


def test_sketch_mode_sees_ingests_and_edits(config):
    """The sketch tier follows every write of the session: a table ingested
    after the first sketch-mode request, and a row edit made by remove +
    ingest, are both signed before the next one prunes."""
    keys = [[f"k{i}", f"v{i}"] for i in range(5)]
    query = QueryTable(table=Table(99, "q", ["a", "b"], keys), key_columns=["a", "b"])
    sketch = {
        "planner": PlannerOptions(mode="sketch"),
        "sketch": SketchOptions(threshold=0.5),
    }
    live = LiveIndex(config=config)
    with DiscoverySession(TableCorpus(name="sketched"), live, config=config) as session:
        session.ingest(Table(1, "partial", ["a", "b"], keys[:2] + [["n0", "m0"]]))

        def answers(**options):
            request = DiscoveryRequest(query=query, engine="live", **options)
            return session.discover(request).result_tuples()

        assert answers() == [(1, 2)]
        assert answers(**sketch) == []
        session.ingest(Table(2, "full", ["a", "b"], keys))
        assert answers() == [(2, 5), (1, 2)]
        assert answers(**sketch) == [(2, 5)]
        assert session.sketch_index().table_ids() == live.indexed_tables() == {1, 2}
        partial = session.corpus.get_table(1)
        replace_table(session, with_row(with_row(with_row(partial, keys[2]), keys[3]), keys[4]))
        assert answers(**sketch) == answers() == [(1, 5), (2, 5)]
        assert session.sketch_index().table_ids() == live.indexed_tables() == {1, 2}
