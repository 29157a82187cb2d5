"""Differential suite of the bulk index build (repro.index.bulk).

``IndexBuilder.build`` is compared with the per-cell ``add_table`` loop over
a plain ``InvertedIndex`` — the reference, spelled out here so it does not
depend on what the builder selects — on random corpora: vocabulary order,
every block column, the row table and the bytes of the written ``.seg``.
The corpora hold what the array passes could get wrong: no tables, tables
without rows or without columns, all-missing rows, a value twice in one row
and in many tables, tables iterated out of id order, table ids that are
negative or too large for a ``table * span + row`` code.

The module runs under whichever kernel the process selected.  With numpy
the build is the array lane; under ``MATE_KERNEL=fallback`` (and without
numpy) both sides are the loop, and ``test_the_lane_is_selected_by_layout_
and_kernel_alone`` pins that this selection is the only switch.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MateConfig, Table
from repro.datamodel import Row
from repro.exceptions import IndexError_
from repro.hashing import SuperKeyGenerator
from repro.index import (
    IndexBuilder,
    InvertedIndex,
    ShardedInvertedIndex,
    active_kernel,
    build_index,
)
from repro.storage import MappedSegmentIndex, load_segment, write_segment
from repro.storage.paged import block_of
from repro.storage.segment_block import flatten_index

from tests.helpers import BUILD_LANES, assert_blocks_equal, block_columns, build_in_lane

VOCABULARY = ["", "ada", "alan", "grace", "İstanbul", "straße", "漢字", "42", "x y", "q" * 40]

TABLE_IDS = st.sampled_from([0, 1, 2, 3, 7, 2**40 + 5, 2**62, -1, -(2**45)])


@st.composite
def corpora(draw) -> list[Table]:
    """A list of tables (any sized iterable of tables is a corpus to the
    builder), ids distinct but in drawn — not ascending — order."""
    tables = []
    for table_id in draw(st.lists(TABLE_IDS, unique=True, max_size=5)):
        num_columns = draw(st.integers(0, 4))
        rows = draw(
            st.lists(
                st.lists(
                    st.sampled_from(VOCABULARY),
                    min_size=num_columns,
                    max_size=num_columns,
                ),
                max_size=5,
            )
        )
        # ``Table`` refuses no columns and negative ids at construction;
        # the index layer does not, so both are installed afterwards.
        table = Table(table_id=0, name="t", columns=["c0"], rows=[])
        table.table_id = table_id
        table.columns = [f"c{position}" for position in range(num_columns)]
        table.rows = [Row(row) for row in rows]
        tables.append(table)
    return tables


def loop_built(tables, config: MateConfig, hash_function_name: str) -> InvertedIndex:
    """The reference: one ``add_table`` per table over a plain index."""
    builder = IndexBuilder(config=config, hash_function_name=hash_function_name)
    index = InvertedIndex(hash_function_name, config.hash_size, "columnar")
    for table in tables:
        builder.add_table(index, table)
    return index


@pytest.mark.parametrize(
    "hash_size, hash_function_name",
    [(48, "xash"), (128, "xash"), (256, "xash"), (1024, "xash"), (128, "md5")],
)
@given(tables=corpora())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_build_equals_the_add_table_loop(
    tmp_path, hash_size, hash_function_name, tables
):
    config = MateConfig(hash_size=hash_size)
    builder = IndexBuilder(config=config, hash_function_name=hash_function_name)
    built = builder.build(tables)
    reference = loop_built(tables, config, hash_function_name)

    assert list(built.values()) == list(reference.values())
    assert block_columns(block_of(built)) == block_columns(flatten_index(reference))
    assert write_segment(built, tmp_path / "built.seg", fsync=False).read_bytes() == (
        write_segment(reference, tmp_path / "loop.seg", fsync=False).read_bytes()
    )
    # The row table, through the read surface (a zero-column or all-missing
    # row owns key 0 and still has a row).
    assert sorted(built.iter_super_keys()) == sorted(reference.iter_super_keys())
    assert built.indexed_tables() == reference.indexed_tables()
    probes = VOCABULARY + ["never indexed"]
    assert_blocks_equal(built.fetch_batch(probes), reference.fetch_batch(probes))

    report = builder.last_report
    assert (report.num_tables, report.num_rows) == (
        len(tables),
        sum(len(table.rows) for table in tables),
    )
    assert report.num_posting_items == reference.num_posting_items()
    assert report.num_distinct_values == len(reference)


def test_the_lane_is_selected_by_layout_and_kernel_alone():
    table = Table(table_id=3, name="t", columns=["a", "b"], rows=[["x", ""], ["y", "x"]])
    arrays = active_kernel() == "numpy"
    columnar = build_index([table])
    assert type(columnar) is (MappedSegmentIndex if arrays else InvertedIndex)
    assert type(build_index([table], layout="legacy")) is InvertedIndex
    assert type(build_index([table], config=MateConfig(index_layout="legacy"))) is (
        InvertedIndex
    )
    built, sketches = IndexBuilder().build_with_sketches([table])
    assert type(built) is type(columnar) and sketches.table_ids() == {3}
    for lane in BUILD_LANES:
        forced = build_in_lane(lane, [table])
        assert type(forced) is (MappedSegmentIndex if lane == "block" else InvertedIndex)
        assert block_columns(block_of(forced)) == block_columns(block_of(columnar))


def test_a_plain_object_with_hash_value_is_a_hash_function():
    """``SuperKeyGenerator`` takes any object with ``hash_value``; the batch
    entry point is optional."""

    class Plain:
        config = MateConfig()
        hash_size = config.hash_size

        def hash_value(self, value: str) -> int:
            return 0 if value == "" else 1 << (len(value) % self.hash_size)

    table = Table(table_id=0, name="t", columns=["a", "b"], rows=[["x", "yy"], ["", "zzz"]])
    generator = SuperKeyGenerator(Plain())
    built = IndexBuilder(super_key_generator=generator).build([table])
    assert sorted(built.iter_super_keys()) == [(0, 0, 0b110), (0, 1, 0b1000)]


@pytest.mark.parametrize("lane", BUILD_LANES)
class TestThaw:
    """A built index accepts every mutation, whichever lane built it; a
    sealed or mapped segment refuses them all."""

    TABLES = [
        Table(table_id=0, name="t", columns=["a", "b"], rows=[["x", "y"], ["x", ""]]),
        Table(table_id=1, name="u", columns=["a"], rows=[["y"]]),
    ]

    MUTATIONS = {
        "add_posting": ("z", 1, 0, 0),
        "set_super_key": (1, 0, 12345),
        "or_into_super_key": (0, 1, 1 << 77),
        "remove_table": (0,),
        "remove_row": (0, 1),
        "remove_column": (0, 0),
    }

    @pytest.mark.parametrize("operation", sorted(MUTATIONS))
    def test_every_mutator_ends_in_the_same_state(self, lane, operation):
        built = build_in_lane(lane, self.TABLES)
        reference = loop_built(self.TABLES, MateConfig(), "xash")
        before = built.fetch_batch(["x", "y"])
        arguments = self.MUTATIONS[operation]
        assert getattr(built, operation)(*arguments) == (
            getattr(reference, operation)(*arguments)
        )
        assert type(built) is InvertedIndex
        assert block_columns(flatten_index(built)) == (
            block_columns(flatten_index(reference))
        )
        # Blocks fetched before the thaw keep what they held.
        assert [block.items() for block in before] == [
            block.items()
            for block in loop_built(self.TABLES, MateConfig(), "xash").fetch_batch(
                ["x", "y"]
            )
        ]

    def test_a_fetch_repeats_across_the_thaw(self, lane):
        built = build_in_lane(lane, self.TABLES)
        before = built.fetch_batch(["y", "x", "nothing"])
        columns = built.posting_columns("x").copy()
        built.set_posting_columns("x", columns)
        assert_blocks_equal(built.fetch_batch(["y", "x", "nothing"]), before)

    def test_a_spilled_key_survives_the_thaw(self, lane):
        built = build_in_lane(lane, self.TABLES)
        oversize = (1 << 300) | 0b101
        built.set_super_key(0, 0, oversize)
        assert built.super_key(0, 0) == oversize
        assert built.fetch(["x"])[0].super_key == oversize

    def test_segments_still_refuse(self, lane, tmp_path):
        built = build_in_lane(lane, self.TABLES)
        sealed = MappedSegmentIndex(block_of(built))
        mapped = load_segment(write_segment(built, tmp_path / "t.seg", fsync=False))
        try:
            for segment in (sealed, mapped):
                for operation, arguments in self.MUTATIONS.items():
                    with pytest.raises(IndexError_, match="read-only"):
                        getattr(segment, operation)(*arguments)
                with pytest.raises(IndexError_, match="read-only"):
                    segment.set_posting_columns("x", built.posting_columns("x"))
                assert type(segment) is MappedSegmentIndex
        finally:
            mapped.close()


def test_sharding_a_built_index_memoises_nothing_on_it(tiny_workload, config):
    """``from_index`` copies a block-backed source straight from its columns:
    walking it through ``posting_columns`` would leave one memoised view per
    vocabulary entry behind on an index that outlives the partitioning."""
    corpus = tiny_workload.corpus
    sharded = {
        lane: ShardedInvertedIndex.from_index(
            build_in_lane(lane, corpus, config=config), num_shards=3
        )
        for lane in BUILD_LANES
    }
    source = build_index(corpus, config=config)
    mine = ShardedInvertedIndex.from_index(source, num_shards=3)
    if isinstance(source, MappedSegmentIndex):
        assert source._postings == {}
    probes = list(source.values())[::7] + ["", "never indexed"]
    for theirs in sharded.values():
        assert mine.shard_sizes() == theirs.shard_sizes()
        for shard in range(3):
            assert block_columns(flatten_index(mine.shard(shard))) == (
                block_columns(flatten_index(theirs.shard(shard)))
            )
        assert sorted(mine.iter_super_keys()) == sorted(theirs.iter_super_keys())
        assert_blocks_equal(mine.fetch_batch(probes), theirs.fetch_batch(probes))
    assert_blocks_equal(mine.fetch_batch(probes), source.fetch_batch(probes))
    # The copy is independent of its source.
    removed = mine.remove_table(sorted(mine.indexed_tables())[0])
    assert removed and mine.num_posting_items() + removed == source.num_posting_items()


def test_hash_batch_of_an_oversize_hash_is_refused():
    from repro.exceptions import HashingError
    from repro.hashing import HashFunction

    class TooWide(HashFunction):
        name = "too_wide"

        def hash_value(self, value: str) -> int:
            return 1 << (self.hash_size + 9)

    pytest.importorskip("numpy")
    with pytest.raises(HashingError, match="does not fit"):
        TooWide(MateConfig()).hash_batch(["a"])


def test_ablated_configurations_build_identically():
    """The four XASH switches reach the array lane through the config."""
    tables = [
        Table(table_id=4, name="t", columns=["a", "b"], rows=[["hello world", "42"], ["", "ß"]])
    ]
    for switch in ("use_rare_characters", "encode_location", "encode_length", "rotation"):
        config = replace(MateConfig(), **{switch: False})
        built = build_index(tables, config=config)
        reference = loop_built(tables, config, "xash")
        assert block_columns(block_of(built)) == block_columns(flatten_index(reference))
