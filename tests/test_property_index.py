"""Property-based tests for index construction and for Section 5.4 edits
through the session over a live index."""

import random
import tempfile

from hypothesis import given, settings, strategies as st

from repro import DiscoverySession, LiveIndex, MateConfig, build_index
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.hashing import SuperKeyGenerator
from tests.helpers import (
    assert_live_matches_bulk,
    fetch_items,
    replace_table,
    row_keys,
    visible_corpus,
    with_cell,
    with_column,
    with_row,
    without_column,
    without_row,
)

VOCABULARY = ["ada", "alan", "grace", "berlin", "paris", "rome", "42", "x y"]
values = st.sampled_from(VOCABULARY)
CONFIG = MateConfig(hash_size=128, expected_unique_values=700_000_000)


def build_random_corpus(rng: random.Random, num_tables: int = 3) -> TableCorpus:
    corpus = TableCorpus(name="prop")
    for table_id in range(num_tables):
        num_columns = rng.randint(1, 4)
        rows = [
            [rng.choice(VOCABULARY) for _ in range(num_columns)]
            for _ in range(rng.randint(1, 6))
        ]
        corpus.add_table(
            Table(
                table_id=table_id,
                name=f"t{table_id}",
                columns=[f"c{i}" for i in range(num_columns)],
                rows=rows,
            )
        )
    return corpus


class TestIndexInvariants:
    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_posting_count_equals_non_missing_cells(self, seed):
        corpus = build_random_corpus(random.Random(seed))
        index = build_index(corpus, config=CONFIG)
        expected = sum(
            1
            for table in corpus
            for row in table.rows
            for value in row
            if value != ""
        )
        assert index.num_posting_items() == expected
        assert index.num_rows() == sum(t.num_rows for t in corpus)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_every_posting_points_at_its_value(self, seed):
        corpus = build_random_corpus(random.Random(seed))
        index = build_index(corpus, config=CONFIG)
        for item in fetch_items(index, list(index.values())):
            row = corpus.get_row(item.table_id, item.row_index)
            assert row[item.column_index] == item.value

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_super_keys_cover_value_hashes(self, seed):
        corpus = build_random_corpus(random.Random(seed))
        index = build_index(corpus, config=CONFIG)
        generator = SuperKeyGenerator.from_name("xash", CONFIG)
        for item in fetch_items(index, list(index.values())):
            value_hash = generator.value_hash(item.value)
            super_key = index.super_key(item.table_id, item.row_index)
            assert super_key | value_hash == super_key


QUERIES = [
    QueryTable(
        table=Table(
            99,
            "q",
            ["a", "b"],
            [[left, right] for left in VOCABULARY[:4] for right in VOCABULARY[3:]],
        ),
        key_columns=["a", "b"],
    )
]


def random_edits(session: DiscoverySession, seed: int) -> None:
    """Apply random edits of every Section 5.4 kind through ``session``."""
    rng = random.Random(seed)
    corpus, live = session.corpus, session.index
    for step in range(8):
        operation = rng.choice(
            [
                "insert_row",
                "update_cell",
                "delete_row",
                "insert_table",
                "insert_column",
                "delete_column",
                "delete_table",
            ]
        )
        visible = sorted(live.indexed_tables())
        if operation == "insert_table":
            session.ingest(
                Table(
                    table_id=corpus.next_table_id(),
                    name="new",
                    columns=["a", "b"],
                    rows=[[rng.choice(VOCABULARY), rng.choice(VOCABULARY)]],
                )
            )
            continue
        if not visible:
            continue
        table = corpus.get_table(rng.choice(visible))
        if operation == "delete_table":
            session.remove(table.table_id)
        elif operation == "insert_row":
            replace_table(
                session, with_row(table, [rng.choice(VOCABULARY)] * table.num_columns)
            )
        elif operation == "insert_column":
            values = [rng.choice(VOCABULARY) for _ in range(table.num_rows)]
            replace_table(session, with_column(table, f"added{step}", values))
        elif operation == "delete_column" and table.num_columns > 1:
            replace_table(session, without_column(table, rng.choice(table.columns)))
        elif operation == "update_cell" and table.num_rows:
            replace_table(
                session,
                with_cell(
                    table,
                    rng.randrange(table.num_rows),
                    rng.randrange(table.num_columns),
                    rng.choice(VOCABULARY),
                ),
            )
        elif operation == "delete_row" and table.num_rows:
            replace_table(session, without_row(table, rng.randrange(table.num_rows)))


class TestEditRoundTrips:
    """Random edit sequences through the session, on a live index in memory
    and on a directory (the original tables sealed before the edits; sealed,
    merged and reopened after them): the live index fetches, answers and
    counts exactly like a bulk build of the tables it serves, in its ingest
    order (the untouched ones first, then the edited ones as last
    touched)."""

    @staticmethod
    def check(session, live) -> None:
        assert_live_matches_bulk(session, live, QUERIES, VOCABULARY + ["absent"])
        bulk = build_index(visible_corpus(live, session.corpus), config=CONFIG)
        assert row_keys(live.snapshot()) == row_keys(bulk)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_random_edit_sequence_in_memory(self, seed):
        live = LiveIndex(config=CONFIG)
        with DiscoverySession(TableCorpus(name="prop"), live, config=CONFIG) as session:
            for table in build_random_corpus(random.Random(seed)):
                session.ingest(table)
            random_edits(session, seed)
            self.check(session, live)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=15, deadline=None)
    def test_random_edit_sequence_on_a_reopened_directory(self, seed):
        corpus = TableCorpus(name="prop")
        with tempfile.TemporaryDirectory() as directory:
            live = LiveIndex.open(directory, config=CONFIG, fsync=False)
            with DiscoverySession(corpus, live, config=CONFIG) as session:
                for table in build_random_corpus(random.Random(seed)):
                    session.ingest(table)
                live.seal()
                random_edits(session, seed)
                self.check(session, live)
                live.seal()
                live.merge()
            live.close()
            with LiveIndex.open(directory, config=CONFIG, fsync=False) as reopened:
                with DiscoverySession(corpus, reopened, config=CONFIG) as session:
                    self.check(session, reopened)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_delete_table_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        live = LiveIndex(config=CONFIG)
        with DiscoverySession(TableCorpus(name="prop"), live, config=CONFIG) as session:
            for table in build_random_corpus(rng, num_tables=4):
                session.ingest(table)
            victim = rng.choice(sorted(live.indexed_tables()))
            session.remove(victim)
            remaining = visible_corpus(live, session.corpus)
            assert victim not in remaining
            assert len(remaining) == 3
            self.check(session, live)
