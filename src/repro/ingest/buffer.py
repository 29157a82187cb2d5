"""The mutable in-memory delta index of the ingestion subsystem.

An :class:`IngestBuffer` is the write head of a
:class:`~repro.ingest.live.LiveIndex`: newly ingested tables land here first,
beside the per-table *add sequence numbers* the snapshot and tombstone
machinery reasons about.  A write is two steps — :meth:`IngestBuffer.stage`
does everything that can raise (interning, hashing) without touching the
buffer, :meth:`IngestBuffer.install` cannot fail — so the live index logs a
table only after it is known to be indexable.

The buffer is a column store: a table enters as columns — its cells are
interned and hashed by the routines of :mod:`repro.index.bulk` (values new
to the process in one batch XASH call) and appended to flat, amortised-
doubling arrays: per non-missing cell ``(value id, row number, column
index)``, per row ``(table id, row index, packed key)``, per value id a
posting count.  Sealing is :func:`~repro.index.bulk.layout_block` over those
arrays: a sealed buffer equals ``build_block`` of its surviving tables in add
order, column for column.  Reads go through a :class:`BufferView`, which
never lays the whole buffer out to answer a fetch.

Buffers are cheap to churn: a removed table that still lives in the buffer is
physically dropped (the buffer is small, so the rewrite is bounded), which
keeps the delta free of masked data — only immutable segments need
tombstones.  Sealing (:meth:`IngestBuffer.seal`) freezes the buffer: every
further mutation raises :class:`~repro.exceptions.IndexClosedError`.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as _np

from ..config import MateConfig
from ..datamodel import MISSING, Table
from ..datamodel.encoding import MISSING_ID
from ..exceptions import IndexClosedError
from ..hashing.base import key_width
from ..index import FetchBlock, IndexBuilder, InvertedIndex
from ..index.bulk import encode_tables, layout_block, row_keys
from ..index.columnar import column_view


class StagedTable(NamedTuple):
    """A table :meth:`IngestBuffer.stage` encoded for :meth:`IngestBuffer.install`."""

    table: Table
    #: Values new to the buffer, in the order they get the next ids.
    fresh_values: list[str]
    #: Buffer id of each value of the table's dictionary pass, and its
    #: posting count.
    buffer_ids: Any
    value_counts: Any
    #: ``(buffer value id, row, column)`` per non-missing cell.
    cells: tuple[Any, Any, Any]
    #: ``(table id, row index, super key)`` per row.
    rows: tuple[Any, Any, Any]


class IngestBuffer:
    """Mutable delta inverted index accepting online ``add`` / ``remove``.

    Writers append past what readers pinned (a column that runs out of room
    is reallocated) and :meth:`drop_table` builds new columns, so a
    :class:`BufferView` keeps reading the prefix it pinned.  The one column
    updated in place, the posting counts, is copied before a write when a
    view shares it.
    """

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
        self._generator = self._builder.super_key_generator
        width = key_width(self._generator.hash_size)
        #: value -> id, first-seen order (the missing value: ``MISSING_ID``).
        self._ids: dict[str, int] = {MISSING: MISSING_ID}
        #: Postings per value id.
        self._counts = _np.zeros(0, dtype=_np.int64)
        #: Per non-missing cell: value id, row number (into ``_rows``), column.
        self._cells = [
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int32),
        ]
        self._cell_count = 0
        #: Per row: table id, row index, packed super key.
        self._rows = [
            _np.empty(0, dtype=_np.int64),
            _np.empty(0, dtype=_np.int64),
            _np.empty((0, width), dtype=_np.uint8),
        ]
        self._row_count = 0
        #: table id -> (first row, rows, first cell, cells); a table's rows
        #: and cells are contiguous, in add order.
        self._tables: dict[int, tuple[int, int, int, int]] = {}
        self._view: BufferView | None = None
        #: table id -> sequence number of the add operation.
        self.table_seqs: dict[int, int] = {}
        self._sealed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def builder(self) -> IndexBuilder:
        """The (hash-memoising) builder; shared with successor buffers."""
        return self._builder

    @property
    def index(self) -> "BufferView":
        """The read surface of what is buffered *now*: a pinned
        :class:`BufferView` (one object until the next write)."""
        if self._view is None:
            self._view = BufferView(self)
        return self._view

    def __len__(self) -> int:
        """Number of tables currently buffered."""
        return len(self.table_seqs)

    def num_rows(self) -> int:
        """Number of buffered rows (rows owning a super key)."""
        return self._row_count

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_writable(self, operation: str) -> None:
        if self._sealed:
            raise IndexClosedError(
                f"{operation} on a sealed ingest buffer; the buffer was "
                "compacted into an immutable segment and accepts no writes"
            )

    def stage(self, table: Table) -> StagedTable:
        """Encode ``table`` for :meth:`install` — interning and hashing, so
        whatever can raise does it here — leaving the buffer untouched.  A
        staged table must be installed (or dropped) before the next write."""
        self._ensure_writable("add_table")
        encoded = encode_tables((table,))
        values = encoded.values
        keys = row_keys(self._generator.hash_rows(values), encoded)
        local_ids, cell_rows, cell_columns = encoded.cells()
        # Table-local ids -> buffer ids; a value new to the buffer gets the
        # next id, assigned here and entered into the dictionary at install.
        known = len(self._ids) - 1
        buffer_ids = _np.fromiter(
            map(self._ids.get, values, repeat(-1)), _np.int64, len(values)
        )
        fresh = buffer_ids < 0
        fresh_values = list(compress(values, fresh.tolist()))
        buffer_ids[fresh] = _np.arange(known, known + len(fresh_values))
        return StagedTable(
            table,
            fresh_values,
            buffer_ids,
            _np.bincount(local_ids, minlength=len(values)),
            (buffer_ids[local_ids], cell_rows, cell_columns),
            (encoded.row_tables, encoded.row_rows, keys),
        )

    def install(self, staged: StagedTable, seq: int) -> int:
        """Make a staged table readable under sequence number ``seq``;
        returns the number of indexed rows."""
        table, fresh_values, buffer_ids, value_counts, cells, rows = staged
        known = len(self._ids) - 1
        if self._view is not None:
            self._counts = self._counts.copy()
            self._view = None
        self._ids.update(zip(fresh_values, count(known)))
        self._counts = _grown(self._counts, known, len(fresh_values), zeroed=True)
        self._counts[buffer_ids] += value_counts
        first_row, first_cell = self._row_count, self._cell_count
        cells = (cells[0], cells[1] + first_row, cells[2])
        for columns, parts, used in (
            (self._cells, cells, first_cell),
            (self._rows, rows, first_row),
        ):
            for position, part in enumerate(parts):
                column = _grown(columns[position], used, len(part))
                column[used : used + len(part)] = part
                columns[position] = column
        self._cell_count += len(cells[0])
        self._row_count += len(rows[0])
        self._tables[table.table_id] = (
            first_row,
            len(rows[0]),
            first_cell,
            len(cells[0]),
        )
        self.table_seqs[table.table_id] = seq
        return table.num_rows

    def drop_table(self, table_id: int) -> int:
        """Physically remove a buffered table; returns dropped PL items.

        No-op (returning 0) when the table is not buffered — the caller's
        tombstones handle segment-resident copies.
        """
        self._ensure_writable("drop_table")
        if table_id not in self.table_seqs:
            return 0
        del self.table_seqs[table_id]
        first_row, num_rows, first_cell, num_cells = self._tables[table_id]
        self._view = None
        cell_cut = slice(first_cell, first_cell + num_cells)
        value_ids, cell_rows, cell_columns = (
            _np.delete(column[: self._cell_count], cell_cut) for column in self._cells
        )
        cell_rows[first_cell:] -= num_rows
        row_cut = slice(first_row, first_row + num_rows)
        self._rows = [
            _np.delete(column[: self._row_count], row_cut, axis=0)
            for column in self._rows
        ]
        # The vocabulary of the surviving cells, in their first-seen order:
        # what a buffer that never saw the table would hold.
        survivors, first_seen = _np.unique(value_ids, return_index=True)
        survivors = survivors[_np.argsort(first_seen)]
        renumbered = _np.empty(len(self._ids) - 1, dtype=_np.int64)
        renumbered[survivors] = _np.arange(len(survivors))
        value_ids = renumbered[value_ids]
        values = list(self._ids)[1:]
        self._ids = {MISSING: MISSING_ID}
        self._ids.update(zip(map(values.__getitem__, survivors.tolist()), count()))
        self._counts = _np.bincount(value_ids, minlength=len(survivors))
        self._cells = [value_ids, cell_rows, cell_columns]
        self._cell_count -= num_cells
        self._row_count -= num_rows
        self._tables = {
            other: entry
            if entry[0] < first_row
            else (entry[0] - num_rows, entry[1], entry[2] - num_cells, entry[3])
            for other, entry in self._tables.items()
            if other != table_id
        }
        return num_cells

    def seal(self) -> InvertedIndex:
        """Freeze the buffer and return its postings as segment payload.

        After sealing, every mutation raises
        :class:`~repro.exceptions.IndexClosedError`.  The payload is the
        buffer laid out as one block (the immutable segment the read path
        stacks, and what a segment file is written from); :attr:`index`
        stays readable for the snapshots that pinned it.
        """
        self._sealed = True
        return self.index.laid_out()


def _grown(column: Any, used: int, extra: int, zeroed: bool = False) -> Any:
    """``column`` with room for ``extra`` items past its first ``used``:
    itself while they fit, else a copy of at least twice the capacity."""
    if used + extra <= len(column):
        return column
    shape = (max(used + extra, 2 * len(column)),) + column.shape[1:]
    grown = (_np.zeros if zeroed else _np.empty)(shape, dtype=column.dtype)
    grown[:used] = column[:used]
    return grown


class BufferView:
    """What was buffered at one instant, behind the read surface of an
    :class:`~repro.index.inverted.InvertedIndex`.

    The view pins ``(columns, lengths)`` of the buffer; later appends
    and drops do not show through it.  A fetch maps the probed values to
    ids, takes one pass over the cell-id column and joins *the hit cells
    only* with their rows — one stable sort by probe, one gather of the row
    columns through the cells' row numbers — so its blocks are the ones a
    sealed segment returns.  Nothing a fetch does grows with the row count,
    and only a lookup table with the vocabulary; counts come from the count
    column.  Nothing it serves lays the whole view out: :meth:`laid_out`
    does that once, for a seal.
    """

    def __init__(self, buffer: IngestBuffer):
        self.hash_function_name = buffer.hash_function_name
        self.hash_size = buffer._generator.hash_size
        self._ids = buffer._ids
        self._num_values = len(buffer._ids) - 1
        self._counts = buffer._counts
        self._cells = [column[: buffer._cell_count] for column in buffer._cells]
        self._rows = [column[: buffer._row_count] for column in buffer._rows]
        self._laid_out: InvertedIndex | None = None

    def laid_out(self) -> InvertedIndex:
        """The whole view as one block (memoised)."""
        if self._laid_out is None:
            self._laid_out = InvertedIndex(
                layout_block(
                    list(self._ids)[1 : self._num_values + 1],
                    tuple(self._cells),
                    *self._rows,
                    self.hash_function_name,
                    self.hash_size,
                )
            )
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
    def _hits(self, values: Iterable[str]) -> tuple[dict[str, int], Any, list[int]]:
        """The one pass over the cell-id column behind both reads:
        ``(probed, order, edges)`` — the held values of ``values`` (value ->
        id, first-seen order), the positions of their cells (by probe, ties
        in cell order) and where each probe's run of ``order`` starts and
        ends."""
        probed = {
            value: value_id
            for value in dict.fromkeys(values)
            if (value_id := self._value_id(value)) >= 0
        }
        if not probed:
            return probed, _np.empty(0, dtype=_np.intp), [0]
        # Vocabulary-sized, but one calloc and a handful of stores.
        local_of = _np.full(self._num_values, -1, dtype=_np.int64)
        local_of[_np.fromiter(probed.values(), _np.int64, len(probed))] = _np.arange(
            len(probed)
        )
        local_ids = local_of[self._cells[0]]
        hits = _np.flatnonzero(local_ids >= 0)
        probes = local_ids[hits]
        order = hits[_np.argsort(probes, kind="stable")]
        bounds = _np.zeros(len(probed) + 1, dtype=_np.int64)
        _np.cumsum(_np.bincount(probes, minlength=len(probed)), out=bounds[1:])
        return probed, order, bounds.tolist()

    def fetch_batch(
        self, values: Iterable[str], row_base: int = 0
    ) -> list[FetchBlock]:
        """Fetch struct-of-arrays blocks (the contract of
        :meth:`InvertedIndex.fetch_batch
        <repro.index.inverted.InvertedIndex.fetch_batch>`)."""
        probed, order, edges = self._hits(values)
        if not probed:
            return []
        # Each posting's row columns are gathered straight from the row
        # numbers, which are also its row ordinals (past ``row_base``).
        _, cell_rows, cell_columns = self._cells
        row_tables, row_rows, keys = self._rows
        rows = cell_rows[order]
        ordinals = column_view(rows + row_base if row_base else rows, "q")
        tables = column_view(row_tables[rows], "q")
        columns = column_view(cell_columns[order], "i")
        row_indexes = column_view(row_rows[rows], "q")
        packed = column_view(keys[rows], "B")
        width = keys.shape[1]
        return [
            FetchBlock(
                value,
                tables[start:end],
                columns[start:end],
                row_indexes[start:end],
                ordinals[start:end],
                packed[start * width : end * width],
                width,
            )
            for value, start, end in zip(probed, edges, edges[1:])
            if end > start
        ]

    def row_postings(self, values: Sequence[str]) -> tuple[Any, Any, Any]:
        """The postings of ``values`` (the contract of
        :meth:`InvertedIndex.row_postings
        <repro.index.inverted.InvertedIndex.row_postings>`); a row's ordinal
        is its buffer row number, one of :meth:`num_rows`."""
        probed, order, edges = self._hits(values)
        positions = {value: at for at, value in enumerate(values)}
        _, cell_rows, cell_columns = self._cells
        return (
            _np.repeat(
                _np.fromiter(map(positions.__getitem__, probed), _np.intp, len(probed)),
                _np.diff(edges),
            ),
            cell_rows[order],
            cell_columns[order],
        )

    def num_rows(self) -> int:
        """Rows the view holds: what its row ordinals number."""
        return len(self._rows[0])

    def posting_lengths(self, values: Sequence[str]) -> list[int]:
        """Number of PL items of each of ``values`` (reads of the count
        column)."""
        counts = self._counts
        return [
            int(counts[value_id]) if (value_id := self._value_id(value)) >= 0 else 0
            for value in values
        ]

    def num_posting_items(self) -> int:
        return len(self._cells[0])
