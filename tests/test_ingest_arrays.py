"""Differential suite of the array-native ingest path.

The write buffer (``repro.ingest.buffer.IngestBuffer``) is compared with the
per-cell loop buffer it replaced (``tests/helpers.py::legacy_ingest_buffer``)
on random histories — add, buffered drop, re-add of a dropped id, seal — over
tables that hold what the array passes could get wrong: no rows, no columns,
all-missing rows, a value twice in one row, ids out of order, negative, and
too large for a ``table * span + row`` code, at 48 / 128 / 256 hash bits.
Before the seal both buffers must answer every read alike; the sealed block
must equal ``build_block`` of the surviving tables in add order, column for
column, and its ``.seg`` file the bulk build's byte for byte.

The buffer is a column store read through a pinned ``BufferView``.  The
live-index tests further down cover the ack order (nothing is logged that
cannot be indexed), the masked statistics and the "no per-cell call on the
ack path" rule.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import DiscoverySession, MateConfig, Table, TableCorpus
from repro.datamodel import Row
from repro.exceptions import HashingError
from repro.hashing import SuperKeyGenerator
from repro.index import InvertedIndex, build_index
from repro.index.columnar import FetchBlock
from repro.ingest import IngestBuffer, LiveIndex
from repro.ingest.buffer import BufferView
from repro.storage import write_segment
from repro.storage.segment_block import SegmentBlock

from tests.helpers import (
    assert_blocks_equal,
    block_columns,
    block_items,
    fetch_items,
    legacy_ingest_buffer,
    row_keys,
)

VOCABULARY = ["", "ada", "alan", "grace", "İstanbul", "straße", "漢字", "42", "x y", "q" * 40]
PROBES = VOCABULARY + ["never indexed"]

TABLE_IDS = [0, 1, 2, 3, 7, 2**40 + 5, 2**62, -1, -(2**45)]


def make_table(table_id: int, num_columns: int, rows) -> Table:
    """``Table`` refuses no columns and negative ids at construction; the
    index layer does not, so both are installed afterwards."""
    table = Table(table_id=0, name="t", columns=["c0"], rows=[])
    table.table_id = table_id
    table.columns = [f"c{position}" for position in range(num_columns)]
    table.rows = [Row(row) for row in rows]
    return table


@st.composite
def tables(draw, table_id: int) -> Table:
    num_columns = draw(st.integers(0, 4))
    rows = draw(
        st.lists(
            st.lists(
                st.sampled_from(VOCABULARY), min_size=num_columns, max_size=num_columns
            ),
            max_size=5,
        )
    )
    return make_table(table_id, num_columns, rows)


@st.composite
def histories(draw) -> list[tuple]:
    """``("add", table)`` / ``("drop", table_id)`` / ``("probe", values)``
    moves; an add of a buffered id is preceded by its drop (a re-add)."""
    moves: list[tuple] = []
    buffered: set[int] = set()
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(["add", "add", "add", "drop", "probe"]))
        if kind == "add":
            table_id = draw(st.sampled_from(TABLE_IDS))
            if table_id in buffered:
                moves.append(("drop", table_id))
            moves.append(("add", draw(tables(table_id))))
            buffered.add(table_id)
        elif kind == "drop":
            table_id = draw(st.sampled_from(TABLE_IDS))
            moves.append(("drop", table_id))
            buffered.discard(table_id)
        else:
            moves.append(("probe", draw(st.lists(st.sampled_from(PROBES), max_size=6))))
    return moves


def read_everything(index, table_seqs, probes=PROBES) -> dict:
    """What a snapshot reads off a buffer component, as plain objects."""
    return {
        "lengths": index.posting_lengths(probes),
        "items": [block_items(block) for block in index.fetch_batch(probes)],
        "keys": sorted(
            key
            for key in row_keys(
                index.laid_out() if isinstance(index, BufferView) else index
            )
            if key[0] in table_seqs
        ),
        "postings": index.num_posting_items(),
    }


@pytest.mark.parametrize("hash_size", [48, 128, 256])
@given(history=histories())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_buffer_equals_the_loop_buffer_and_seals_into_the_bulk_block(
    tmp_path, hash_size, history
):
    config = MateConfig(hash_size=hash_size)
    buffer = IngestBuffer(config=config)
    oracle = legacy_ingest_buffer(config=config)
    pinned: list[tuple] = []  # (view, what it read when it was pinned)
    for seq, (kind, payload) in enumerate(history, start=1):
        if kind == "add":
            installed = buffer.install(buffer.stage(payload), seq)
            assert installed == oracle.add_table(payload, seq)
        elif kind == "drop":
            assert buffer.drop_table(payload) == oracle.drop_table(payload)
        else:
            assert_blocks_equal(
                buffer.index.fetch_batch(payload), oracle.index.fetch_batch(payload)
            )
        assert buffer.table_seqs == oracle.table_seqs
        assert (buffer.num_rows(), buffer.index.num_posting_items(), len(buffer)) == (
            oracle.num_rows(),
            oracle.num_posting_items(),
            len(oracle),
        )
        mine = read_everything(buffer.index, buffer.table_seqs)
        assert mine == read_everything(oracle.index, oracle.table_seqs)
        assert_blocks_equal(
            buffer.index.fetch_batch(PROBES), oracle.index.fetch_batch(PROBES)
        )
        pinned.append((buffer.index, dict(buffer.table_seqs), mine))
    # Enumeration (the full layout) agrees as sets: the vocabulary order is
    # first-seen over the *surviving* tables, the loop buffer's is not.
    laid_out = buffer.index.laid_out()
    assert sorted(laid_out.values()) == sorted(oracle.index.values())
    assert row_keys(laid_out) == row_keys(oracle.index)

    # A view pinned before later appends, drops and reallocations still
    # reads what it read then.
    for view, table_seqs, read in pinned:
        assert read_everything(view, table_seqs) == read

    surviving = [
        table
        for kind, table in history
        if kind == "add" and buffer.table_seqs.get(table.table_id) is not None
    ]
    # The last add of an id is the surviving one.
    surviving = list({table.table_id: table for table in surviving}.values())
    surviving.sort(key=lambda table: buffer.table_seqs[table.table_id])
    sealed = buffer.seal()
    assert isinstance(sealed, InvertedIndex)
    assert_blocks_equal(sealed.fetch_batch(PROBES), oracle.index.fetch_batch(PROBES))
    rebuilt = build_index(surviving, config=config)
    assert list(sealed.values()) == list(rebuilt.values())
    assert block_columns(sealed.block) == block_columns(rebuilt.block)
    assert write_segment(
        sealed, tmp_path / "sealed.seg", fsync=False
    ).read_bytes() == (
        write_segment(rebuilt, tmp_path / "bulk.seg", fsync=False).read_bytes()
    )
    # After a buffered drop the loop buffer keeps a still-shared value at
    # its older position: same postings, another vocabulary order.
    if not any(kind == "drop" for kind, _payload in history):
        assert block_columns(sealed.block) == block_columns(oracle.seal().block)


def test_the_buffer_reads_through_a_pinned_view():
    buffer = IngestBuffer(config=MateConfig())
    buffer.install(buffer.stage(Table(3, "t", ["a", "b"], [["x", ""], ["y", "x"]])), 1)
    assert type(buffer.index) is BufferView
    # One object until the next write, a new one after it.
    first = buffer.index
    assert buffer.index is first
    buffer.install(buffer.stage(Table(4, "u", ["a"], [["x"]])), 2)
    assert buffer.index is not first
    assert first.posting_lengths(["x"]) == [2]
    assert buffer.index.posting_lengths(["x"]) == [3]
    assert type(buffer.seal()) is InvertedIndex


def test_a_view_survives_column_reallocation_and_a_rebuilding_drop():
    buffer = IngestBuffer(config=MateConfig())
    buffer.install(buffer.stage(Table(1, "t", ["a", "b"], [["x", "y"], ["x", ""]])), 1)
    view = buffer.index
    before = read_everything(view, {1: 1})
    for table_id in range(2, 200):  # several doublings of every column
        buffer.install(
            buffer.stage(Table(table_id, "t", ["a", "b"], [["x", f"v{table_id}"]] * 3)),
            table_id,
        )
    buffer.drop_table(1)
    assert read_everything(view, {1: 1}) == before
    assert view.fetch_batch(["v7"]) == [] and view.posting_lengths(["v7"]) == [0]
    assert 7 not in {table for table, _row, _key in row_keys(view.laid_out())}
    now = buffer.index
    assert now.posting_lengths(["x"]) == [3 * 198]
    assert 1 not in {table for table, _row, _key in row_keys(now.laid_out())}


# ----------------------------------------------------------------------
# The ack path of the live index
# ----------------------------------------------------------------------
CONFIG = MateConfig(hash_size=128, k=3, expected_unique_values=1000)


def simple_table(table_id: int) -> Table:
    return Table(
        table_id,
        f"t{table_id}",
        ["a", "b"],
        [[f"k{table_id}-{row}", f"shared{row % 2}"] for row in range(3)],
    )


@pytest.mark.parametrize("error", [HashingError("oversize"), RuntimeError("boom")])
def test_a_table_that_cannot_be_hashed_leaves_no_trace(tmp_path, monkeypatch, error):
    """Nothing is logged that cannot be indexed: the poisoned table raises,
    and neither the WAL, the sequence, the buffer, the session's sketch
    store nor its corpus moved — the directory reopens."""
    directory = tmp_path / "live"
    live = LiveIndex.open(directory, config=CONFIG, fsync=False)
    corpus = TableCorpus(name="live")
    with DiscoverySession(corpus, live, config=CONFIG) as session:
        session.ingest(simple_table(1))
        wal = (directory / "wal.jsonl").read_bytes()
        state = (
            live._seq, live.buffer_rows, len(live._buffer), live.num_posting_items()
        )
        sketched = session.sketch_index().table_ids()

        def poisoned(self, values):
            raise error

        with monkeypatch.context() as patched:
            # Whichever lane hashes: the batch entry point or the scalar one.
            patched.setattr(SuperKeyGenerator, "hash_matrix", poisoned)
            patched.setattr(SuperKeyGenerator, "row_super_key", poisoned)
            with pytest.raises(type(error)):
                session.ingest(simple_table(2))
        assert (directory / "wal.jsonl").read_bytes() == wal
        assert state == (
            live._seq, live.buffer_rows, len(live._buffer), live.num_posting_items()
        )
        assert session.sketch_index().table_ids() == sketched == {1}
        assert [table.table_id for table in corpus] == [1]
        assert not live.has_table(2)
        # The next write is accepted, under the next sequence number.
        session.ingest(simple_table(2))
        assert live._seq == state[0] + 1 and live.has_table(2)
    live.close()
    reopened = LiveIndex.open(directory, config=CONFIG, fsync=False)
    try:
        assert reopened.indexed_tables() == {1, 2}
        with DiscoverySession(corpus, reopened, config=CONFIG) as session:
            assert session.sketch_index().table_ids() == {1, 2}
    finally:
        reopened.close()


def test_a_table_that_cannot_be_logged_leaves_no_trace(tmp_path, monkeypatch):
    directory = tmp_path / "live"
    live = LiveIndex.open(directory, config=CONFIG, fsync=False)
    live.add_table(simple_table(1))
    wal = (directory / "wal.jsonl").read_bytes()

    def full_disk(self, seq, table):
        raise OSError("no space left on device")

    with monkeypatch.context() as patched:
        patched.setattr("repro.ingest.wal.WriteAheadLog.append_add_table", full_disk)
        with pytest.raises(OSError, match="no space"):
            live.add_table(simple_table(3))
    assert (directory / "wal.jsonl").read_bytes() == wal
    assert live._seq == 1 and live.indexed_tables() == {1}
    live.add_table(simple_table(3))
    assert live._seq == 2 and live.indexed_tables() == {1, 3}
    live.close()


def test_masked_statistics_are_counted_on_the_columns(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    for table_id in (1, 2, 3):
        live.add_table(simple_table(table_id))
    live.seal()
    live.add_table(simple_table(4))
    live.remove_table(2)  # sealed: masked by a tombstone, not purged
    segment = live._segments[0].index
    snapshot = live.snapshot()
    surviving = [simple_table(table_id) for table_id in (1, 3, 4)]
    rebuilt = build_index(surviving, config=CONFIG)
    assert snapshot.num_posting_items() == rebuilt.num_posting_items() == 18
    # Counted, not walked: no posting view was sliced for it.
    assert segment._state.memo[1] == {}
    # The walk's answer, spelled out.
    values = list(segment.values())
    assert segment.visible_counts({2}) == 12 == sum(
        item.table_id != 2 for item in fetch_items(segment, values)
    )
    # The masked segment counts its filtered blocks.
    probes = sorted(rebuilt.values()) + ["absent"]
    assert snapshot.posting_lengths(probes) == rebuilt.posting_lengths(probes)
    assert row_keys(snapshot) == row_keys(rebuilt)
    assert sorted(snapshot.block.values) == sorted(rebuilt.values())
    live.close()


def test_no_per_cell_call_is_reachable_from_the_array_ack_path(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a per-cell routine ran on the array ack path")

    monkeypatch.setattr(SegmentBlock, "from_postings", forbidden)
    monkeypatch.setattr(FetchBlock, "__init__", forbidden)
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    for table_id in (1, 2, 3):
        live.add_table(simple_table(table_id))
        assert live.seal() is not None
    live.remove_table(2)
    assert live.merge(0, None) is not None
    assert live.num_posting_items() == 12
    live.close()
