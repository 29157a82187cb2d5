"""The mutable in-memory delta index of the ingestion subsystem.

An :class:`IngestBuffer` is the write head of a
:class:`~repro.ingest.live.LiveIndex`: newly ingested tables land here first,
beside the per-table *add sequence numbers* the snapshot and tombstone
machinery reasons about.  A write is two steps — :meth:`IngestBuffer.stage`
does everything that can raise (interning, hashing) without touching the
buffer, :meth:`IngestBuffer.install` cannot fail — so the live index logs a
table only after it is known to be indexable.

The buffer has two lanes holding the same content, selected once per buffer
by the rule of the bulk build (:func:`repro.index.kernels.active_kernel`):

* **column store** (numpy) — a table enters as columns: its cells are
  interned and hashed by the routines of :mod:`repro.index.bulk` (values new
  to the process in one batch XASH call) and appended to flat, amortised-
  doubling arrays — per non-missing cell ``(value id, row number, column
  index)``, per row ``(table id, row index, packed key)``, per value id a
  posting count.  Sealing is :func:`~repro.index.bulk.layout_block` over
  those arrays: a sealed buffer equals ``build_block`` of its surviving
  tables in add order, column for column.  Reads go through a
  :class:`BufferView`, which never lays the whole buffer out to answer a
  fetch.
* **loop** (no numpy, ``MATE_KERNEL=fallback|off``) — a small mutable
  :class:`~repro.index.inverted.InvertedIndex` filled by
  :meth:`IndexBuilder.add_table <repro.index.builder.IndexBuilder.add_table>`,
  flattened into a block at seal.

Buffers are cheap to churn: a removed table that still lives in the buffer is
physically dropped (the buffer is small, so the rewrite is bounded), which
keeps the delta free of masked data — only immutable segments need
tombstones.  Sealing (:meth:`IngestBuffer.seal`) freezes the buffer: every
further mutation raises :class:`~repro.exceptions.IndexClosedError`.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from typing import Any, Iterable, Iterator

from ..config import MateConfig
from ..datamodel import MISSING, Table
from ..datamodel.encoding import MISSING_ID
from ..exceptions import IndexClosedError, IndexError_
from ..hashing import generate_row_super_keys
from ..hashing.base import key_width
from ..index import (
    ColumnarPostingList,
    FetchBlock,
    IndexBuilder,
    InvertedIndex,
    PostingListItem,
)
from ..index.bulk import encode_tables, layout_block, row_keys
from ..index.kernels import active_kernel
from ..storage.paged import MappedSegmentIndex
from ..storage.segment_block import flatten_index

try:  # numpy is an optional accelerator (the ``accel`` extra), never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None  # type: ignore[assignment]


class IngestBuffer:
    """Mutable delta inverted index accepting online ``add`` / ``remove``."""

    def __init__(
        self,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        builder: IndexBuilder | None = None,
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        # The builder carries the memoised per-value hashes; sharing one
        # across buffer generations keeps re-hashing of recurring values out
        # of the ingest hot path (exactly like the offline bulk build).
        self._builder = builder or IndexBuilder(
            config=self.config, hash_function_name=hash_function_name
        )
        lane = _ColumnStore if active_kernel() == "numpy" else _LoopStore
        self._store = lane(self._builder)
        #: table id -> sequence number of the add operation.
        self.table_seqs: dict[int, int] = {}
        self._sealed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` froze this buffer."""
        return self._sealed

    @property
    def builder(self) -> IndexBuilder:
        """The (hash-memoising) builder; shared with successor buffers."""
        return self._builder

    @property
    def index(self) -> "BufferView | InvertedIndex":
        """The read surface of what is buffered *now*: a pinned
        :class:`BufferView` (column store; one object until the next write)
        or the loop lane's mutable index itself."""
        return self._store.view()

    def __len__(self) -> int:
        """Number of tables currently buffered."""
        return len(self.table_seqs)

    def __contains__(self, table_id: int) -> bool:
        return table_id in self.table_seqs

    def num_rows(self) -> int:
        """Number of buffered rows (rows owning a super key)."""
        return self._store.num_rows()

    def num_posting_items(self) -> int:
        """Number of buffered PL items."""
        return self._store.num_posting_items()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_writable(self, operation: str) -> None:
        if self._sealed:
            raise IndexClosedError(
                f"{operation} on a sealed ingest buffer; the buffer was "
                "compacted into an immutable segment and accepts no writes"
            )

    def stage(self, table: Table) -> tuple:
        """Encode ``table`` for :meth:`install` — interning and hashing, so
        whatever can raise does it here — leaving the buffer untouched.  A
        staged table must be installed (or dropped) before the next write."""
        self._ensure_writable("add_table")
        return table, self._store.stage(table)

    def install(self, staged: tuple, seq: int) -> int:
        """Make a staged table readable under sequence number ``seq``;
        returns the number of indexed rows."""
        table, encoded = staged
        self._store.install(table, encoded)
        self.table_seqs[table.table_id] = seq
        return table.num_rows

    def add_table(self, table: Table, seq: int) -> int:
        """Index ``table`` into the delta under sequence number ``seq``.

        Returns the number of indexed rows.  Super keys come from the shared
        :class:`~repro.index.builder.IndexBuilder`'s generator, the one code
        path a bulk build hashes through.
        """
        return self.install(self.stage(table), seq)

    def drop_table(self, table_id: int) -> int:
        """Physically remove a buffered table; returns dropped PL items.

        No-op (returning 0) when the table is not buffered — the caller's
        tombstones handle segment-resident copies.
        """
        self._ensure_writable("drop_table")
        if table_id not in self.table_seqs:
            return 0
        del self.table_seqs[table_id]
        return self._store.drop(table_id)

    def seal(self) -> MappedSegmentIndex:
        """Freeze the buffer and return its postings as segment payload.

        After sealing, every mutation raises
        :class:`~repro.exceptions.IndexClosedError`.  The payload is the
        buffer laid out as one block (the immutable segment the read path
        stacks, and what a segment file is written from); :attr:`index`
        stays readable for the snapshots that pinned it.
        """
        self._sealed = True
        return self._store.seal()


class _LoopStore:
    """The loop lane: a mutable columnar index filled cell by cell."""

    def __init__(self, builder: IndexBuilder):
        self._builder = builder
        self._index = InvertedIndex(
            hash_function_name=builder.hash_function_name,
            hash_size=builder.config.hash_size,
            layout="columnar",
        )

    def view(self) -> InvertedIndex:
        return self._index

    def num_rows(self) -> int:
        return self._index.num_rows()

    def num_posting_items(self) -> int:
        return self._index.num_posting_items()

    def stage(self, table: Table) -> list[int]:
        return generate_row_super_keys(table.rows, self._builder.super_key_generator)

    def install(self, table: Table, super_keys: list[int]) -> None:
        self._builder.add_table(self._index, table, super_keys)

    def drop(self, table_id: int) -> int:
        return self._index.remove_table(table_id)

    def seal(self) -> MappedSegmentIndex:
        return MappedSegmentIndex(flatten_index(self._index))


def _grown(column: Any, used: int, extra: int, zeroed: bool = False) -> Any:
    """``column`` with room for ``extra`` items past its first ``used``:
    itself while they fit, else a copy of at least twice the capacity."""
    if used + extra <= len(column):
        return column
    shape = (max(used + extra, 2 * len(column)),) + column.shape[1:]
    grown = (_np.zeros if zeroed else _np.empty)(shape, dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


class _ColumnStore:
    """The array lane: the buffered tables as flat columns (module docstring).

    Writers append past what readers pinned (a column that runs out of room
    is reallocated) and :meth:`drop` builds new columns, so a
    :class:`BufferView` keeps reading the prefix it pinned.  The one column
    updated in place, the posting counts, is copied before a write when a
    view shares it.
    """

    def __init__(self, builder: IndexBuilder):
        self.hash_function_name = builder.hash_function_name
        self.generator = builder.super_key_generator
        width = key_width(self.generator.hash_size)
        #: value -> id, first-seen order (the missing value: ``MISSING_ID``).
        self.ids: dict[str, int] = {MISSING: MISSING_ID}
        #: Postings per value id.
        self.counts = _np.zeros(0, dtype=_np.int64)
        #: Per non-missing cell: value id, row number (into ``rows``), column.
        self.cells = [
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int32),
        ]
        self.cell_count = 0
        #: Per row: table id, row index, packed super key.
        self.rows = [
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty((0, width), dtype=_np.uint8),
        ]
        self.row_count = 0
        #: table id -> (first row, rows, first cell, cells); a table's rows
        #: and cells are contiguous, in add order.
        self.tables: dict[int, tuple[int, int, int, int]] = {}
        self._view: BufferView | None = None

    def view(self) -> "BufferView":
        if self._view is None:
            self._view = BufferView(self)
        return self._view

    def num_rows(self) -> int:
        return self.row_count

    def num_posting_items(self) -> int:
        return self.cell_count

    def _before_write(self) -> None:
        if self._view is not None:
            self.counts = self.counts.copy()
            self._view = None

    def stage(self, table: Table) -> tuple:
        encoded = encode_tables((table,))
        values = encoded.values
        keys = row_keys(self.generator.hash_rows(values), encoded)
        local_ids, cell_rows, cell_columns = encoded.cells()
        # Table-local ids -> buffer ids; a value new to the buffer gets the
        # next id, assigned here and entered into the dictionary at install.
        known = len(self.ids) - 1
        buffer_ids = _np.fromiter(
            map(self.ids.get, values, repeat(-1)), _np.int64, len(values)
        )
        fresh = buffer_ids < 0
        fresh_values = list(compress(values, fresh.tolist()))
        buffer_ids[fresh] = _np.arange(known, known + len(fresh_values))
        return (
            fresh_values,
            buffer_ids,
            _np.bincount(local_ids, minlength=len(values)),
            (buffer_ids[local_ids], cell_rows, cell_columns),
            (encoded.row_tables, encoded.row_rows, keys),
        )

    def install(self, table: Table, encoded: tuple) -> None:
        fresh_values, buffer_ids, value_counts, cells, rows = encoded
        known = len(self.ids) - 1
        self._before_write()
        self.ids.update(zip(fresh_values, count(known)))
        self.counts = _grown(self.counts, known, len(fresh_values), zeroed=True)
        self.counts[buffer_ids] += value_counts
        first_row, first_cell = self.row_count, self.cell_count
        cells = (cells[0], cells[1] + first_row, cells[2])
        for columns, parts, used in (
            (self.cells, cells, first_cell),
            (self.rows, rows, first_row),
        ):
            for position, part in enumerate(parts):
                column = _grown(columns[position], used, len(part))
                column[used : used + len(part)] = part
                columns[position] = column
        self.cell_count += len(cells[0])
        self.row_count += len(rows[0])
        self.tables[table.table_id] = (
            first_row,
            len(rows[0]),
            first_cell,
            len(cells[0]),
        )

    def drop(self, table_id: int) -> int:
        first_row, num_rows, first_cell, num_cells = self.tables[table_id]
        self._view = None
        cell_cut = slice(first_cell, first_cell + num_cells)
        value_ids, cell_rows, cell_columns = (
            _np.delete(column[: self.cell_count], cell_cut) for column in self.cells
        )
        cell_rows[first_cell:] -= num_rows
        row_cut = slice(first_row, first_row + num_rows)
        self.rows = [
            _np.delete(column[: self.row_count], row_cut, axis=0)
            for column in self.rows
        ]
        # The vocabulary of the surviving cells, in their first-seen order:
        # what a buffer that never saw the table would hold.
        survivors, first_seen = _np.unique(value_ids, return_index=True)
        survivors = survivors[_np.argsort(first_seen)]
        renumbered = _np.empty(len(self.ids) - 1, dtype=_np.int64)
        renumbered[survivors] = _np.arange(len(survivors))
        value_ids = renumbered[value_ids]
        values = list(self.ids)[1:]
        self.ids = {MISSING: MISSING_ID}
        self.ids.update(zip(map(values.__getitem__, survivors.tolist()), count()))
        self.counts = _np.bincount(value_ids, minlength=len(survivors))
        self.cells = [value_ids, cell_rows, cell_columns]
        self.cell_count -= num_cells
        self.row_count -= num_rows
        self.tables = {
            other: entry
            if entry[0] < first_row
            else (entry[0] - num_rows, entry[1], entry[2] - num_cells, entry[3])
            for other, entry in self.tables.items()
            if other != table_id
        }
        return num_cells

    def seal(self) -> MappedSegmentIndex:
        return self.view().laid_out()


class BufferView:
    """What was buffered at one instant, behind the read surface of an
    :class:`~repro.index.inverted.InvertedIndex`.

    The view pins ``(columns, lengths)`` of the column store; later appends
    and drops do not show through it.  A fetch maps the probed values to
    ids, takes one pass over the cell-id column and lays out *the hit cells
    only* — a tiny block served by
    :class:`~repro.storage.paged.MappedSegmentIndex`, so blocks, runs and
    packed keys are the ones every sealed segment returns.  Nothing a fetch
    does grows with the row count, and only a lookup table with the
    vocabulary; counts come from the count column, row lookups from the
    table map.  Only enumeration (:meth:`values`, :meth:`iter_super_keys`,
    :meth:`posting_columns`) lays the whole view out, once
    (:meth:`laid_out`, which is also what a seal returns).
    """

    def __init__(self, store: _ColumnStore):
        self.hash_function_name = store.hash_function_name
        self.hash_size = store.generator.hash_size
        self._ids = store.ids
        self._num_values = len(store.ids) - 1
        self._counts = store.counts
        self._cells = [column[: store.cell_count] for column in store.cells]
        self._rows = [column[: store.row_count] for column in store.rows]
        self._tables = store.tables
        self._laid_out: MappedSegmentIndex | None = None

    def _block(
        self, values: list[str], cells: tuple, row_table: bool
    ) -> MappedSegmentIndex:
        return MappedSegmentIndex(
            layout_block(
                values,
                cells,
                *self._rows,
                self.hash_function_name,
                self.hash_size,
                row_table=row_table,
            )
        )

    def laid_out(self) -> MappedSegmentIndex:
        """The whole view as one block (memoised)."""
        if self._laid_out is None:
            values = list(self._ids)[1 : self._num_values + 1]
            self._laid_out = self._block(values, tuple(self._cells), True)
        return self._laid_out

    def _value_id(self, value: str) -> int:
        """Id of ``value`` in this view, -1 when it holds no posting of it
        (a value the store interned after the view was pinned is past
        ``_num_values``; the missing value's id is negative)."""
        value_id = self._ids.get(value, -1)
        return value_id if value_id < self._num_values else -1

    # ------------------------------------------------------------------
    # The per-request surface: no layout of the whole view
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch struct-of-arrays blocks (the contract of
        :meth:`InvertedIndex.fetch_batch
        <repro.index.inverted.InvertedIndex.fetch_batch>`)."""
        probed = {
            value: value_id
            for value in dict.fromkeys(values)
            if (value_id := self._value_id(value)) >= 0
        }
        if not probed:
            return []
        # Vocabulary-sized, but one calloc and a handful of stores.
        local_of = _np.full(self._num_values, -1, dtype=_np.int64)
        local_of[_np.fromiter(probed.values(), _np.int64, len(probed))] = _np.arange(
            len(probed)
        )
        value_ids, cell_rows, cell_columns = self._cells
        local_ids = local_of[value_ids]
        hits = _np.flatnonzero(local_ids >= 0)
        cells = (local_ids[hits], cell_rows[hits], cell_columns[hits])
        return self._block(list(probed), cells, False).fetch_batch(probed)

    def posting_list_length(self, value: str) -> int:
        """Number of PL items of ``value`` (one read of the count column)."""
        value_id = self._value_id(value)
        return int(self._counts[value_id]) if value_id >= 0 else 0

    def __contains__(self, value: str) -> bool:
        return self._value_id(value) >= 0

    def __len__(self) -> int:
        return self._num_values

    def num_posting_items(self) -> int:
        return len(self._cells[0])

    def num_rows(self) -> int:
        return len(self._rows[0])

    def _row(self, table_id: int, row_index: int) -> int:
        """Row number of a buffered row, -1 when the view has none."""
        first_row, num_rows, _, _ = self._tables.get(table_id, (0, 0, 0, 0))
        if 0 <= row_index < num_rows and first_row + row_index < self.num_rows():
            return first_row + row_index
        return -1

    def has_row(self, table_id: int, row_index: int) -> bool:
        return self._row(table_id, row_index) >= 0

    def super_key(self, table_id: int, row_index: int) -> int:
        row = self._row(table_id, row_index)
        if row < 0:
            raise IndexError_(
                f"no super key stored for table {table_id} row {row_index}"
            )
        return int.from_bytes(self._rows[2][row].tobytes(), "big")

    # ------------------------------------------------------------------
    # Enumeration: served from the full layout
    # ------------------------------------------------------------------
    def values(self) -> Iterator[str]:
        return self.laid_out().values()

    def iter_super_keys(self) -> Iterator[tuple[int, int, int]]:
        return self.laid_out().iter_super_keys()

    def posting_columns(self, value: str) -> ColumnarPostingList | None:
        return self.laid_out().posting_columns(value)

    def posting_list(self, value: str) -> list[PostingListItem]:
        return self.laid_out().posting_list(value)
