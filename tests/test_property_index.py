"""Property-based tests for index construction and maintenance."""

import copy
import random

from hypothesis import given, settings, strategies as st

from repro import MateConfig, build_index
from repro.datamodel import Table, TableCorpus
from repro.hashing import SuperKeyGenerator
from repro.index import IndexMaintainer
from repro.storage.segment_block import flatten_index
from tests.helpers import BUILD_LANES, block_columns, build_in_lane

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
        for value in index.values():
            for item in index.posting_list(value):
                assert corpus.get_cell(item.table_id, item.row_index, item.column_index) == value

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_super_keys_cover_value_hashes(self, seed):
        corpus = build_random_corpus(random.Random(seed))
        index = build_index(corpus, config=CONFIG)
        generator = SuperKeyGenerator.from_name("xash", CONFIG)
        for value in index.values():
            value_hash = generator.value_hash(value)
            for item in index.posting_list(value):
                super_key = index.super_key(item.table_id, item.row_index)
                assert super_key | value_hash == super_key


class TestMaintenanceRoundTrips:
    """On an index from each lane of the bulk build (the array passes'
    block-backed index thaws at its first edit): the lanes must end in
    identical states."""

    @staticmethod
    def random_edits(maintainer: IndexMaintainer, corpus: TableCorpus, seed: int):
        rng = random.Random(seed)
        for _ in range(6):
            operation = rng.choice(["insert_row", "update_cell", "delete_row", "insert_table"])
            table_ids = corpus.table_ids()
            if operation == "insert_table":
                maintainer.insert_table(
                    Table(
                        table_id=corpus.next_table_id(),
                        name="new",
                        columns=["a", "b"],
                        rows=[[rng.choice(VOCABULARY), rng.choice(VOCABULARY)]],
                    )
                )
            elif not table_ids:
                continue
            else:
                table_id = rng.choice(table_ids)
                table = corpus.get_table(table_id)
                if operation == "insert_row":
                    maintainer.insert_row(
                        table_id, [rng.choice(VOCABULARY)] * table.num_columns
                    )
                elif operation == "update_cell" and table.num_rows:
                    maintainer.update_cell(
                        table_id,
                        rng.randrange(table.num_rows),
                        rng.randrange(table.num_columns),
                        rng.choice(VOCABULARY),
                    )
                elif operation == "delete_row" and table.num_rows:
                    maintainer.delete_row(table_id, rng.randrange(table.num_rows))

    @given(seed=st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_random_edit_sequence_keeps_index_consistent(self, seed):
        original = build_random_corpus(random.Random(seed))
        generator = SuperKeyGenerator.from_name("xash", CONFIG)
        end_states = []
        for lane in BUILD_LANES:
            corpus = copy.deepcopy(original)
            index = build_in_lane(lane, corpus, config=CONFIG)
            maintainer = IndexMaintainer(corpus, index, generator)
            self.random_edits(maintainer, corpus, seed)
            assert maintainer.verify_consistency() == []
            end_states.append(block_columns(flatten_index(index)))
        assert all(state == end_states[0] for state in end_states)

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
            assert index.num_posting_items() == fresh.num_posting_items()
            assert set(index.iter_super_keys()) == set(fresh.iter_super_keys())
