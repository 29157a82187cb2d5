"""The extended single-attribute inverted index (Sections 3 and 5).

An :class:`InvertedIndex` serves one CSR block
(:class:`~repro.storage.segment_block.SegmentBlock`): the classic value ->
posting list index of Eq. 4 plus the per-row super key that turns it into
MATE's extended index.  The block's columns live on the heap (a bulk build, a
sealed or merged segment, a loaded index) or in a mapped ``.seg`` file
(:func:`~repro.storage.paged.load_segment`).  The block stores one super
key per row and each posting as a row ordinal; a value's
:class:`~repro.index.columnar.FetchBlock` — table ids, row indexes and
packed super keys gathered from the row table through its ordinals (the
paper's join between super keys and PLs), column indexes sliced — is built
at its first fetch and memoised with its coverage memo, so a warm
``fetch_batch`` hands out the same block and does no per-item work, and
counts come from the offsets.
Its query surface is exactly what Algorithm 1 needs:

* ``fetch_batch`` — the posting lists (with super keys) of a set of probe
  values as one struct-of-arrays block per value (line 4);
* ``row_postings`` — the ``(row ordinal, column)`` postings of the key
  values, gathered from the block's posting columns: what row verification
  (line 21) matches a surviving pair's row against, kept apart from
  ``fetch_batch`` (nothing is joined or memoised for it);
* ``posting_lengths`` — how long those lists are, for the planner's
  ``cost`` mode and the index-backed column selectors, and
  ``visible_lengths`` — the same outside a set of masked tables (what a
  live snapshot counts on a segment a tombstone masks);
* the row and statistics reads (``super_key``, ``indexed_tables``,
  ``num_posting_items``, ``num_rows``, ``values``, ``len``) that storage
  reports make.

A closed index refuses every one of them.

The index is immutable: it has no mutator.  Section 5.4's corpus edits go
through a :class:`~repro.ingest.live.LiveIndex` (``DiscoverySession.remove``
then ``ingest`` of the edited table), which stacks immutable blocks like
this one.  What a read needs — the block, its value-id map, its row-key
reader and the per-value block memo — is one :class:`_State`, published by
one attribute store, and every read takes it once: a reader racing
:meth:`InvertedIndex.close` answers wholly from the block or is refused.
"""

from __future__ import annotations

import mmap
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import TYPE_CHECKING, Any, Collection, Iterable, Iterator, Sequence

import numpy as np

from ..exceptions import IndexClosedError, IndexError_, SegmentFormatError
from .columnar import FetchBlock

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..storage.segment_block import SegmentBlock


class RowKeys:
    """Per-row super keys over one block's row table (read-only).

    Point lookups binary-search the sorted ``(table_id, row_index)``
    columns.
    """

    __slots__ = ("width_bytes", "_tables", "_rows", "_keys")

    def __init__(self, block: "SegmentBlock"):
        self.width_bytes = block.key_width
        self._tables = block.row_table_ids
        self._rows = block.row_row_indexes
        self._keys = block.row_keys

    def __len__(self) -> int:
        return len(self._tables)

    def _slot(self, table_id: int, row_index: int) -> int:
        tables = self._tables
        low = bisect_left(tables, table_id)
        high = bisect_right(tables, table_id, low)
        slot = bisect_left(self._rows, row_index, low, high)
        if slot < high and self._rows[slot] == row_index:
            return slot
        return -1

    def get(self, key: tuple[int, int]) -> int | None:
        """Return the super key stored under ``key`` (``None`` when none is)."""
        slot = self._slot(*key)
        if slot < 0:
            return None
        width = self.width_bytes
        offset = slot * width
        return int.from_bytes(self._keys[offset : offset + width], "big")

    def table_ids_present(self) -> set[int]:
        """Distinct table ids owning at least one row."""
        return set(self._tables)


class _State:
    """Everything one read of an :class:`InvertedIndex` needs."""

    __slots__ = ("block", "value_ids", "rows", "arrays", "memo")

    def __init__(self, block: "SegmentBlock", name: str):
        self.block = block
        self.value_ids = dict(zip(block.values, range(len(block.values))))
        if len(self.value_ids) != len(block.values):
            raise SegmentFormatError(
                f"segment {name} lists a value twice in its vocabulary"
            )
        self.rows = RowKeys(block)
        self.arrays = block.arrays()
        #: ``(row base, the fetch blocks joined so far)``, one attribute so
        #: a reader takes both at once; never the whole vocabulary:
        #: everything that enumerates values reads the block.
        self.memo: tuple[int, dict[str, FetchBlock]] = (0, {})

    def memo_of(self, row_base: int) -> dict[str, FetchBlock]:
        """The fetch blocks of row base ``row_base``: the memo, started over
        when it holds another base.  A live snapshot numbers a segment's
        rows after those of the segments before it, which move only when a
        merge below purges rows, so the memo rarely starts over."""
        base, fetched = self.memo
        if base != row_base:
            fetched = {}
            self.memo = (row_base, fetched)
        return fetched

    def join(self, values: list[str], fetched: dict, row_base: int) -> None:
        """Build the fetch blocks of ``values`` (indexed, distinct) into the
        memo ``fetched``, row ordinals offset by ``row_base``.

        This is the fetch-time join of the per-row layout: the values' row
        ordinals gather the table ids, row indexes and super keys of their
        postings out of the row table — one gather per column for all of
        ``values`` — and each block slices its run out of the gathered
        columns; the column indexes are slices of the block.  Only fetched
        values are joined.  Two threads may join the same value at once:
        they build equal blocks and the memo keeps either."""
        block, arrays = self.block, self.arrays
        offsets = block.posting_offsets
        starts = [offsets[self.value_ids[value]] for value in values]
        ends = [offsets[self.value_ids[value] + 1] for value in values]
        if len(values) == 1:
            positions: Any = slice(starts[0], ends[0])
        else:
            # The concatenated ranges ``starts[i]:ends[i]``.
            lengths = np.subtract(ends, starts)
            shifts = np.subtract(starts, np.cumsum(lengths) - lengths)
            positions = np.repeat(shifts, lengths) + np.arange(int(lengths.sum()))
        # Index width once, not once per gather.
        ordinals = arrays.ordinals[positions].astype(np.intp)
        # Gathers of the block's typecodes export them as they are.
        tables = memoryview(arrays.row_tables[ordinals])
        rows = memoryview(arrays.row_rows[ordinals])
        keys = memoryview(arrays.row_keys.take(ordinals, axis=0)).cast("B")
        width = block.key_width
        columns = block.column_indexes
        # Row ordinals: the block's own, or the gathered ones past row_base.
        based = memoryview(ordinals + row_base) if row_base else None
        at = 0
        for value, start, end in zip(values, starts, ends):
            stop = at + end - start
            fetched[value] = FetchBlock(
                value,
                tables[at:stop],
                columns[start:end],
                rows[at:stop],
                block.row_ordinals[start:end] if based is None else based[at:stop],
                keys[at * width : stop * width],
                width,
            )
            at = stop


def _runs(state: _State, values: Sequence[str]) -> tuple[Any, Any]:
    """Per posting of the indexed ``values``, the position in ``values`` of
    its value, and its position in the block's posting columns: the
    values' runs, end to end."""
    get = state.value_ids.get
    found = [
        (position, value_id)
        for position, value in enumerate(values)
        if (value_id := get(value)) is not None
    ]
    offsets = state.arrays.offsets
    positions, value_ids = np.array(found, dtype=np.intp).reshape(-1, 2).T
    starts = offsets[value_ids]
    lengths = offsets[value_ids + 1] - starts
    # The concatenated runs ``starts[i]:starts[i] + lengths[i]``.
    at = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(
        int(lengths.sum())
    )
    return np.repeat(positions, lengths), at


class InvertedIndex:
    """Value -> posting-list mapping plus per-row super keys, served from
    one block (see the module docstring).

    ``path`` names the ``.seg`` file a mapped index serves (``mapping`` is
    its :mod:`mmap`), ``None`` for a heap block.  :meth:`close` drops the
    block (unmapping the file), after which every read raises
    :class:`~repro.exceptions.IndexClosedError`.
    """

    def __init__(
        self,
        block: "SegmentBlock",
        path: Path | None = None,
        mapping: mmap.mmap | None = None,
    ):
        #: Name of the hash function the super keys were generated with.
        self.hash_function_name = block.hash_function_name
        #: Width of the stored super keys in bits.
        self.hash_size = block.hash_size
        self.path = path
        self._mm = mapping
        self._closed = False
        self._state = _State(block, self._name())

    def _name(self) -> str:
        return "(in memory)" if self.path is None else str(self.path)

    def __reduce__(self):
        """Pickle / deep-copy as an index over a heap copy of the block."""
        return type(self), (self.block,)

    # ------------------------------------------------------------------
    # The block
    # ------------------------------------------------------------------
    @property
    def block(self) -> "SegmentBlock":
        """The CSR block this index serves (what a segment file holds)."""
        return self._ensure_open("reading the block").block

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the block and unmap a segment file (idempotent).

        Every later read raises the typed
        :class:`~repro.exceptions.IndexClosedError` — a closed index never
        answers as if it were empty.  Fetch blocks handed
        out earlier keep their buffers alive: the OS unmaps the pages when
        the last exported view is released.
        """
        if self._closed:
            return
        from ..storage.segment_block import SegmentBlock

        self._closed = True
        width = self._state.block.key_width
        self._state = _State(
            SegmentBlock.empty(self.hash_function_name, self.hash_size, width),
            self._name(),
        )
        mapping, self._mm = self._mm, None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # Still-exported buffers (live fetch blocks) pin the
                # mapping; it goes away with their last reference.
                pass

    def _ensure_open(self, operation: str) -> _State:
        """The state ``operation`` reads; refused once the index is closed."""
        if self._closed:
            raise IndexClosedError(
                f"{operation} on a closed index; the index was closed or "
                "sealed and no longer serves requests"
            )
        return self._state

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct indexed values."""
        return len(self._ensure_open("len").block.values)

    def values(self) -> Iterator[str]:
        """Iterate over the distinct indexed values (first-seen order)."""
        return iter(self._ensure_open("values").block.values)

    def num_posting_items(self) -> int:
        """Total number of PL items across all values."""
        return self._ensure_open("num_posting_items").block.num_postings()

    def num_rows(self) -> int:
        """Number of rows that own a super key."""
        return len(self._ensure_open("num_rows").rows)

    def indexed_tables(self) -> set[int]:
        """Return the ids of all tables with at least one indexed row."""
        return self._ensure_open("indexed_tables").rows.table_ids_present()

    def visible_counts(self, masked: Collection[int]) -> int:
        """PL items outside the ``masked`` tables — see
        :func:`~repro.storage.segment_block.visible_counts`; nothing is
        sliced or memoised for a count."""
        from ..storage.segment_block import visible_counts

        return visible_counts(self._ensure_open("visible_counts").block, masked)

    def posting_lengths(self, values: Sequence[str]) -> list[int]:
        """The number of PL items of each of ``values`` (0 when not indexed),
        read off the offsets without slicing."""
        state = self._ensure_open("posting_lengths")
        value_ids, offsets = state.value_ids, state.block.posting_offsets
        lengths = []
        for value in values:
            value_id = value_ids.get(value)
            lengths.append(
                0 if value_id is None else offsets[value_id + 1] - offsets[value_id]
            )
        return lengths

    def row_postings(self, values: Sequence[str]) -> tuple[Any, Any, Any]:
        """The postings of ``values`` (distinct) as three parallel arrays:
        per posting, the position in ``values`` of its value, its row's
        ordinal in the row table (:meth:`num_rows` of them) and its
        column — the values' runs of the block's two posting columns, end
        to end, in one gather each.  A value's postings in one row are
        adjacent, in column order."""
        state = self._ensure_open("row_postings")
        positions, at = _runs(state, values)
        arrays = state.arrays
        return positions, arrays.ordinals[at], arrays.columns[at]

    def visible_lengths(
        self, values: Sequence[str], masked: Collection[int]
    ) -> list[int]:
        """:meth:`posting_lengths` without the postings of the ``masked``
        tables, counted on the values' row ordinals and the row table's ids:
        nothing is joined or memoised for a count."""
        state = self._ensure_open("visible_lengths")
        positions, at = _runs(state, values)
        arrays = state.arrays
        dead = np.fromiter(masked, np.int64, len(masked))
        alive = ~np.isin(arrays.row_tables[arrays.ordinals[at]], dead)
        return np.bincount(positions[alive], minlength=len(values)).tolist()

    def super_key(self, table_id: int, row_index: int) -> int:
        """Return the super key of a row."""
        stored = self._ensure_open("super_key").rows.get((table_id, row_index))
        if stored is None:
            raise IndexError_(
                f"no super key stored for table {table_id} row {row_index}"
            )
        return stored

    # ------------------------------------------------------------------
    # Discovery-phase retrieval
    # ------------------------------------------------------------------
    def fetch_batch(
        self, values: Iterable[str], row_base: int = 0
    ) -> list[FetchBlock]:
        """Fetch the postings of ``values`` as struct-of-arrays blocks.

        One block per probed value with at least one PL item, in first-seen
        value order; duplicate and missing probe values are skipped.  The
        row join of a value runs at its first fetch; every later fetch of it
        returns the same memoised block (coverage memo included), so a warm
        ``fetch_batch`` does no per-item work at all.  The blocks' row
        ordinals are the row table's plus ``row_base`` (what a live
        snapshot stacking this index above others asks for).
        """
        state = self._ensure_open("fetch_batch")
        fetched = state.memo_of(row_base)
        probed = dict.fromkeys(values)
        unjoined = [
            value
            for value in probed
            if value not in fetched and value in state.value_ids
        ]
        if unjoined:
            state.join(unjoined, fetched, row_base)
        return [fetched[value] for value in probed if value in fetched]
