"""Differential suite of the CSR segment block (repro.storage.segment_block).

``merge_segments`` over flat blocks is compared with the per-value
implementation it replaced (``tests/helpers.py::legacy_merge_segments``) on
random histories: duplicate values across segments, tables removed after
their segment sealed (a value whose every posting is tombstoned must vanish
from the vocabulary), ids re-added after removal, 2-5 segments, table ids
too large for a ``table * span + row`` search code,
and — half the histories — segments and merge results left without a single
posting.  The merged block must also equal the oracle's block, column for
column.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MateConfig, Table
from repro.ingest import Segment, merge_segments
from repro.storage.segment_block import SegmentBlock, merge_blocks

from tests.helpers import (
    assert_blocks_equal,
    block_columns,
    fetch_items,
    legacy_ingest_buffer,
    legacy_merge_segments,
    row_keys,
)

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=10_000)


def make_table(table_id: int, cells: list[list[int]]) -> Table:
    """Rows over a narrow shared vocabulary plus one value only this table
    has (so removing the table empties a posting list)."""
    rows = [[f"n{a}", f"c{b}", f"only-{table_id}"] for a, b in cells]
    return Table(
        table_id=table_id, name=f"t{table_id}", columns=["n", "c", "u"], rows=rows
    )


CELLS = st.lists(
    st.lists(st.integers(0, 4), min_size=2, max_size=2), min_size=1, max_size=4
)


@st.composite
def histories(draw):
    """``(plan, base, anchored)``: per segment, the ``(op, slot, cells)``
    moves applied before it seals, the offset added to every table id, and
    whether every segment also gets a table nothing ever removes (without
    one, segments — and the merge result — may end up empty)."""
    plan = [
        draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["add", "add", "remove"]),
                    st.integers(0, 4),
                    CELLS,
                ),
                min_size=1,
                max_size=5,
            )
        )
        for _ in range(draw(st.integers(2, 5)))
    ]
    base = draw(st.sampled_from([0, 0, 2**62]))
    return plan, base, draw(st.booleans())


def build_segments(plan, base, anchored=True):
    """Replay ``plan`` the way a live index would: sequence numbers, buffer
    drops, tombstones for sealed copies, one sealed buffer per step.

    The buffers are the per-cell loop buffer (laid out at seal).  The
    column-store buffer has its own differential
    (``tests/test_ingest_arrays.py``)."""
    seq = 0
    buffered: dict = {}  # visible table id -> its buffer
    sealed: set[int] = set()  # visible table ids living in a sealed segment
    tombstones: dict[int, int] = {}
    segments: list[Segment] = []
    fresh = 100
    for generation, moves in enumerate(plan, start=1):
        buffer = legacy_ingest_buffer(config=CONFIG)
        for op, slot, cells in moves:
            table_id = base + slot
            if op == "add":
                if table_id in buffered or table_id in sealed:
                    continue
                seq += 1
                buffer.add_table(make_table(table_id, cells), seq)
                buffered[table_id] = buffer
            elif table_id in buffered:  # remove
                seq += 1
                buffered.pop(table_id).drop_table(table_id)
            elif table_id in sealed:
                seq += 1
                sealed.discard(table_id)
                tombstones[table_id] = seq
        if anchored:  # a table of the segment's own that is never removed
            seq += 1
            buffer.add_table(make_table(base + fresh, [[generation % 5, 0]]), seq)
            buffered[base + fresh] = buffer
            fresh += 1
        segments.append(
            Segment(
                index=buffer.seal(),
                table_seqs=buffer.table_seqs,
                generation=generation,
            )
        )
        sealed.update(buffered)
        buffered.clear()
    return segments, tombstones


def assert_same_segment(merged: Segment, oracle: Segment) -> None:
    new, old = merged.index, oracle.index
    values = list(old.values())
    assert list(new.values()) == values
    assert fetch_items(new, values) == fetch_items(old, values)
    assert new.posting_lengths(values) == old.posting_lengths(values)
    assert new.num_posting_items() == old.num_posting_items()
    # The row table: sorted, one row per surviving super key.
    rows = sorted(row_keys(old))
    assert row_keys(new) == rows
    block = new.block
    assert list(zip(block.row_table_ids, block.row_row_indexes)) == [
        (table_id, row_index) for table_id, row_index, _super_key in rows
    ]
    assert merged.table_seqs == oracle.table_seqs
    probes = values + ["absent"]
    assert_blocks_equal(new.fetch_batch(probes), old.fetch_batch(probes))


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(history=histories())
def test_merge_matches_the_per_value_merge(history):
    plan, base, anchored = history
    segments, tombstones = build_segments(plan, base, anchored)
    merged = merge_segments(segments, tombstones, generation=9)
    oracle = legacy_merge_segments(segments, tombstones, generation=9)
    assert_same_segment(merged, oracle)
    assert block_columns(merged.index.block) == block_columns(oracle.index.block)
    # Merging the merge result changes nothing: tombstones are spent.
    again = merge_blocks([merged.index.block], [set()])
    assert block_columns(again) == block_columns(merged.index.block)


def test_a_value_with_every_posting_tombstoned_vanishes():
    # The deterministic core of the property above.
    plan = [
        [("add", 0, [[0, 0]]), ("add", 1, [[0, 1]])],
        [("remove", 0, []), ("add", 2, [[1, 1]])],
        [("add", 0, [[2, 2]])],
    ]
    segments, tombstones = build_segments(plan, 0)
    assert tombstones  # table 0's first copy is masked in segment 1
    merged = merge_segments(segments, tombstones, generation=4)
    values = list(merged.index.values())
    # Table 0's first copy alone held n0/c0 pairs with "only-0" …
    assert "only-0" in values  # … but the re-added copy brings it back,
    # after everything segment 1 and 2 contributed.
    assert values.index("only-0") > values.index("only-2")
    assert merged.index.posting_lengths(["only-0"]) == [1]
    assert 0 in merged.table_seqs


def test_a_merge_that_purges_every_table_leaves_an_empty_block():
    # No posting, no row: the key matrices are (0, width).
    plan = [
        [("add", 0, [[0, 0], [1, 1]])],
        [("add", 1, [[0, 1]])],
        [("remove", 0, []), ("remove", 1, [])],
    ]
    segments, tombstones = build_segments(plan, 0, anchored=False)
    assert set(tombstones) == {0, 1}
    assert len(segments[2]) == 0  # sealing nothing is a block too
    merged = merge_segments(segments, tombstones, generation=4)
    oracle = legacy_merge_segments(segments, tombstones, generation=4)
    assert_same_segment(merged, oracle)
    assert block_columns(merged.index.block) == block_columns(
        SegmentBlock.empty("xash", CONFIG.hash_size, 16)
    )
    assert merged.table_seqs == {}
    assert merged.index.fetch_batch(["n0", "only-0"]) == []


def test_merging_differently_hashed_blocks_is_refused():
    from repro.exceptions import IndexError_

    narrow = SegmentBlock.empty("xash", 128, 16)
    wide = SegmentBlock.empty("xash", 256, 32)
    with pytest.raises(IndexError_, match="hashed differently"):
        merge_blocks([narrow, wide], [set(), set()])
    with pytest.raises(IndexError_, match="empty"):
        merge_blocks([], [])
