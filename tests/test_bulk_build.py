"""Differential suite of the bulk index build (repro.index.bulk).

``IndexBuilder.build`` is compared with the per-cell reference
(``tests/helpers.py::CellIndex``, laid out by ``SegmentBlock.from_postings``)
on random corpora: vocabulary order, every block column, the row table and
the bytes of the written ``.seg``.  The corpora hold what the array passes
could get wrong: no tables, tables without rows or without columns,
all-missing rows, a value twice in one row and in many tables, tables
iterated out of id order, table ids that are negative or too large for a
``table * span + row`` code.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MateConfig, Table
from repro.datamodel import Row
from repro.hashing import SuperKeyGenerator
from repro.index import IndexBuilder, InvertedIndex, build_index
from repro.storage import write_segment

from tests.helpers import (
    BUILD_LANES,
    CellIndex,
    assert_blocks_equal,
    block_columns,
    build_in_lane,
    row_keys,
)

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


def loop_built(tables, config: MateConfig, hash_function_name: str) -> CellIndex:
    """The reference: every cell of every table, one at a time."""
    return CellIndex.built(tables, config, hash_function_name)


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
def test_build_equals_the_per_cell_reference(
    tmp_path, hash_size, hash_function_name, tables
):
    config = MateConfig(hash_size=hash_size)
    builder = IndexBuilder(config=config, hash_function_name=hash_function_name)
    built = builder.build(tables)
    reference = loop_built(tables, config, hash_function_name).to_index()

    assert list(built.values()) == list(reference.values())
    assert block_columns(built.block) == block_columns(reference.block)
    assert write_segment(built, tmp_path / "built.seg", fsync=False).read_bytes() == (
        write_segment(reference, tmp_path / "loop.seg", fsync=False).read_bytes()
    )
    # The row table, through the read surface (a zero-column or all-missing
    # row owns key 0 and still has a row).
    assert row_keys(built) == row_keys(reference)
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


def test_a_bulk_build_is_served_from_its_block():
    table = Table(table_id=3, name="t", columns=["a", "b"], rows=[["x", ""], ["y", "x"]])
    columnar = build_index([table])
    assert type(columnar) is InvertedIndex
    assert type(IndexBuilder().build([table])) is type(columnar)
    for lane in BUILD_LANES:
        forced = build_in_lane(lane, [table])
        assert type(forced) is InvertedIndex
        assert block_columns(forced.block) == block_columns(columnar.block)


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
    assert row_keys(built) == [(0, 0, 0b110), (0, 1, 0b1000)]


def test_hash_batch_of_an_oversize_hash_is_refused():
    from repro.exceptions import HashingError
    from repro.hashing import HashFunction

    class TooWide(HashFunction):
        name = "too_wide"

        def hash_value(self, value: str) -> int:
            return 1 << (self.hash_size + 9)

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
        assert block_columns(built.block) == block_columns(reference.to_block())
