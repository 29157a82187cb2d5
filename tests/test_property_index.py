"""Property-based tests for index construction and maintenance."""

import copy
import random

from hypothesis import given, settings, strategies as st

from repro import MateConfig, build_index
from repro.datamodel import Table, TableCorpus
from repro.hashing import SuperKeyGenerator
from repro.index import IndexMaintainer, InvertedIndex
from repro.index.bulk import build_block
from repro.storage.segment_block import SegmentBlock
from tests.helpers import (
    BUILD_LANES,
    block_columns,
    block_postings,
    build_in_lane,
    fetch_items,
    row_keys,
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


def canonical(block) -> dict:
    """Every column of ``block`` with its vocabulary sorted: each posting
    list, posting key and row, whatever order the values came in."""
    return block_columns(
        SegmentBlock.from_postings(
            block.hash_function_name,
            block.hash_size,
            sorted(block_postings(block)),
            row_keys(InvertedIndex(block)),
        )
    )


class TestMaintenanceRoundTrips:
    """On an index from each lane of the bulk build: every edit rewrites the
    block, so after any edit sequence the block is the bulk build of the
    corpus with the edited tables moved to the end, in last-touched order —
    column for column, up to the vocabulary order (``merge_blocks`` keeps a
    value where it first survives; a bulk build lists it where it is first
    seen)."""

    @staticmethod
    def random_edits(
        maintainer: IndexMaintainer, corpus: TableCorpus, seed: int
    ) -> list[int]:
        """Apply random edits; returns the table ids in block order (the
        untouched ones first, then the edited ones as last touched)."""
        rng = random.Random(seed)
        order = corpus.table_ids()

        def touched(table_id: int) -> None:
            order.remove(table_id)
            order.append(table_id)

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
            table_ids = corpus.table_ids()
            if operation == "insert_table":
                table_id = corpus.next_table_id()
                maintainer.insert_table(
                    Table(
                        table_id=table_id,
                        name="new",
                        columns=["a", "b"],
                        rows=[[rng.choice(VOCABULARY), rng.choice(VOCABULARY)]],
                    )
                )
                order.append(table_id)
                continue
            if not table_ids:
                continue
            table_id = rng.choice(table_ids)
            table = corpus.get_table(table_id)
            if operation == "delete_table":
                maintainer.delete_table(table_id)
                order.remove(table_id)
                continue
            if operation == "insert_row":
                maintainer.insert_row(
                    table_id, [rng.choice(VOCABULARY)] * table.num_columns
                )
            elif operation == "insert_column":
                maintainer.insert_column(
                    table_id,
                    f"added{step}",
                    [rng.choice(VOCABULARY) for _ in range(table.num_rows)],
                )
            elif operation == "delete_column" and table.num_columns > 1:
                maintainer.delete_column(table_id, rng.choice(table.columns))
            elif operation == "update_cell" and table.num_rows:
                maintainer.update_cell(
                    table_id,
                    rng.randrange(table.num_rows),
                    rng.randrange(table.num_columns),
                    rng.choice(VOCABULARY),
                )
            elif operation == "delete_row" and table.num_rows:
                maintainer.delete_row(table_id, rng.randrange(table.num_rows))
            else:
                continue
            touched(table_id)
        return order

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_random_edit_sequence_keeps_index_consistent(self, seed):
        original = build_random_corpus(random.Random(seed))
        generator = SuperKeyGenerator.from_name("xash", CONFIG)
        for lane in BUILD_LANES:
            corpus = copy.deepcopy(original)
            index = build_in_lane(lane, corpus, config=CONFIG)
            maintainer = IndexMaintainer(corpus, index, generator)
            order = self.random_edits(maintainer, corpus, seed)
            assert maintainer.verify_consistency() == []
            expected = build_block(
                [corpus.get_table(table_id) for table_id in order], generator, "xash"
            )
            assert canonical(index.block) == canonical(expected)

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=20, deadline=None)
    def test_delete_table_then_rebuild_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        original = build_random_corpus(rng, num_tables=4)
        generator = SuperKeyGenerator.from_name("xash", CONFIG)
        victim = rng.choice(original.table_ids())
        for lane in BUILD_LANES:
            corpus = copy.deepcopy(original)
            index = build_in_lane(lane, corpus, config=CONFIG)
            IndexMaintainer(corpus, index, generator).delete_table(victim)

            fresh = build_index(corpus, config=CONFIG)
            assert canonical(index.block) == canonical(fresh.block)
