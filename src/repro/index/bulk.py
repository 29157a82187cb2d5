"""The array-native build: tables straight into one CSR block.

The offline step of the paper (Section 5, "Indexing" in Figure 2) emits one
PL item per non-missing cell and one OR-aggregated super key per row.  This
module does that in three array passes instead of one Python call per cell,
as routines the bulk build (:func:`build_block`) and the ingest buffer
(:mod:`repro.ingest.buffer`) both call:

1. **Dictionary pass** (:func:`encode_tables`) — the tables' cells are
   flattened once and interned to dense value ids in first-seen order (the
   missing value is :data:`~repro.datamodel.encoding.MISSING_ID`), beside
   per-row ``(table_id, row_index, start, width)`` columns.
2. **Batch hash** — every distinct value is hashed once into a
   ``(values, key_width)`` byte matrix
   (:meth:`~repro.hashing.SuperKeyGenerator.hash_matrix`; the buffer goes
   through the generator's memo of packed rows); a row's super key is the OR
   of its cells' hash rows (:func:`row_keys`, one ``bitwise_or.reduceat``).
3. **Layout** (:func:`layout_block`) — the posting columns are **one stable
   argsort** of the non-missing cells by value id.  Cells are kept in table,
   row, column order, and a stable sort keeps equal ids in that order —
   exactly the order a per-cell scan of the tables appends postings in.  A
   posting stores its row's ordinal in the sorted row table, where the
   row's key is stored once.

Every key fits ``key_width`` by construction: a hash wider than it cannot
come out of the matrix.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple, Sequence

import numpy as _np

from ..datamodel import MISSING, Table
from ..datamodel.encoding import MISSING_ID, intern_cells
from ..hashing import SuperKeyGenerator

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..storage.segment_block import SegmentBlock


class EncodedTables(NamedTuple):
    """The dictionary pass over some tables: cells as ids, rows as columns."""

    #: The vocabulary, first-seen order; ``values[i]`` has id ``i``.
    values: list[str]
    #: The id of every cell (missing ones included), table, row, column order.
    cell_ids: Any
    #: Cells per row, and where each row's cells start in :attr:`cell_ids`.
    widths: Any
    row_starts: Any
    #: ``(table_id, row_index)`` of every row.
    row_tables: Any
    row_rows: Any

    def cells(self) -> tuple[Any, Any, Any]:
        """``(value id, row number, column index)`` of every non-missing
        cell, in cell order — the input of :func:`layout_block`."""
        present = _np.flatnonzero(self.cell_ids != MISSING_ID)
        cell_rows = _np.repeat(_np.arange(len(self.widths)), self.widths)[present]
        return (
            self.cell_ids[present],
            cell_rows,
            (present - self.row_starts[cell_rows]).astype(_np.int32),
        )


def encode_tables(tables: Sequence[Table]) -> EncodedTables:
    """Intern the cells of ``tables`` against one fresh dictionary."""
    rows = list(chain.from_iterable(table.rows for table in tables))
    ids: dict[str, int] = {MISSING: MISSING_ID}
    # The cell list dies with this statement; the ids are 8 bytes a cell.
    cell_ids = intern_cells(list(chain.from_iterable(rows)), ids, _np.int64)
    values = list(ids)[1:]
    del ids
    widths = _np.fromiter(map(len, rows), _np.int64, len(rows))
    rows_per_table = _np.fromiter(
        (len(table.rows) for table in tables), _np.int64, len(tables)
    )
    return EncodedTables(
        values=values,
        cell_ids=cell_ids,
        widths=widths,
        row_starts=_np.cumsum(widths) - widths,
        row_tables=_np.repeat(
            _np.fromiter(
                (table.table_id for table in tables), _np.int64, len(tables)
            ),
            rows_per_table,
        ),
        row_rows=_np.arange(len(rows))
        - _np.repeat(_np.cumsum(rows_per_table) - rows_per_table, rows_per_table),
    )


def row_keys(hashes: Any, encoded: EncodedTables) -> Any:
    """Every row's super key, ``(rows, key_width)`` bytes: the OR of the
    hash rows of its cells, ``hashes[i]`` being the hash of value ``i``.

    A row without cells (a zero-column table) gets key 0 — ``reduceat``
    cannot express an empty segment, so it runs over the rows that have
    cells."""
    # One more row, all zero: the hash ``MISSING_ID`` (-1, the last) indexes.
    hashes = _np.concatenate(
        (hashes, _np.zeros((1, hashes.shape[1]), dtype=_np.uint8))
    )
    # OR is byte-order blind: eight bytes a lane when the width allows it.
    lanes = hashes.view(_np.uint64) if hashes.shape[1] % 8 == 0 else hashes
    keys = _np.zeros((len(encoded.widths), lanes.shape[1]), dtype=lanes.dtype)
    filled = encoded.widths > 0
    if filled.any():
        keys[filled] = _np.bitwise_or.reduceat(
            lanes[encoded.cell_ids], encoded.row_starts[filled]
        )
    return keys.view(_np.uint8)


def layout_block(
    values: list[str],
    cells: tuple[Any, Any, Any],
    row_tables: Any,
    row_rows: Any,
    keys: Any,
    hash_function_name: str,
    hash_size: int,
) -> "SegmentBlock":
    """Lay ``cells`` (see :meth:`EncodedTables.cells`; every value id must
    occur) out as the block of ``values``, over the rows the three row
    columns describe: the rows sorted into the row table, each posting the
    ordinal of its row there and its column."""
    # Imported here: ``repro.storage`` itself imports ``repro.index``.
    from ..storage.segment_block import SegmentBlock, row_ordinals

    value_ids, cell_rows, cell_columns = cells
    # Posting order: by value id, ties in cell order.
    order = _np.argsort(value_ids, kind="stable")
    offsets = _np.zeros(len(values) + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(value_ids, minlength=len(values)), out=offsets[1:])
    # Tables may arrive out of id order: the row table is sorted, rows of
    # one table already are.
    by_row = _np.lexsort((row_rows, row_tables))
    return SegmentBlock(
        hash_function_name=hash_function_name,
        hash_size=hash_size,
        key_width=keys.shape[1],
        values=values,
        posting_offsets=offsets,
        row_ordinals=row_ordinals(by_row)[cell_rows[order]],
        column_indexes=cell_columns[order],
        row_table_ids=row_tables[by_row],
        row_row_indexes=row_rows[by_row],
        row_keys=keys[by_row],
    )


def build_block(
    corpus: Iterable[Table], generator: SuperKeyGenerator, hash_function_name: str
) -> "SegmentBlock":
    """The CSR block of every table of ``corpus`` (see the module docstring)."""
    return encoded_block(encode_tables(list(corpus)), generator, hash_function_name)


def encoded_block(
    encoded: EncodedTables, generator: SuperKeyGenerator, hash_function_name: str
) -> "SegmentBlock":
    """The CSR block of the tables whose dictionary pass is ``encoded``."""
    keys = row_keys(generator.hash_matrix(encoded.values), encoded)
    return layout_block(
        encoded.values,
        encoded.cells(),
        encoded.row_tables,
        encoded.row_rows,
        keys,
        hash_function_name,
        generator.hash_size,
    )
