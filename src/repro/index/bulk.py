"""The array-native bulk build: a corpus straight into one CSR block.

The offline step of the paper (Section 5, "Indexing" in Figure 2) emits one
PL item per non-missing cell and one OR-aggregated super key per row.
:func:`build_block` does that in three array passes instead of one Python
call per cell:

1. **Dictionary pass** — the corpus' cells are flattened once and interned
   to dense value ids in first-seen order (the missing value is
   :data:`~repro.datamodel.encoding.MISSING_ID`), beside per-row
   ``(table_id, row_index, start, width)`` columns.
2. **Batch hash** — every distinct value is hashed once, through
   :meth:`~repro.hashing.SuperKeyGenerator.hash_matrix`, into a
   ``(values, key_width)`` byte matrix; the missing value owns a zero row.
3. **Layout** — a row's super key is the OR of its cells' hash rows
   (``bitwise_or.reduceat``); the posting columns are **one stable argsort**
   of the non-missing cells by value id.  Cells are laid out in table, row,
   column order, and a stable sort keeps equal ids in that order — exactly
   the order ``add_posting`` appends in, so the block equals
   ``flatten_index`` of the per-cell loop's index, column for column.

The block has no spilled keys by construction: a hash wider than
``key_width`` cannot come out of the matrix.  Requires numpy; the builder
selects this lane by :func:`repro.index.kernels.active_kernel`.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Any, Iterable

from ..datamodel import MISSING, Table
from ..datamodel.encoding import MISSING_ID, intern_cells
from ..hashing import SuperKeyGenerator

try:  # numpy is an optional accelerator (the ``accel`` extra), never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..storage.segment_block import SegmentBlock


def build_block(
    corpus: Iterable[Table], generator: SuperKeyGenerator, hash_function_name: str
) -> "SegmentBlock":
    """The CSR block of every table of ``corpus`` (see the module docstring)."""
    # Imported here: ``repro.storage`` itself imports ``repro.index``.
    from ..storage.segment_block import SegmentBlock

    tables = list(corpus)
    rows = list(chain.from_iterable(table.rows for table in tables))
    ids: dict[str, int] = {MISSING: MISSING_ID}
    # The cell list dies with this statement; the ids are 8 bytes a cell.
    cell_ids = intern_cells(list(chain.from_iterable(rows)), ids, _np.int64)
    values = list(ids)[1:]
    del ids

    widths = _np.fromiter(map(len, rows), _np.int64, len(rows))
    row_starts = _np.cumsum(widths) - widths
    rows_per_table = _np.fromiter(
        (len(table.rows) for table in tables), _np.int64, len(tables)
    )
    row_tables = _np.repeat(
        _np.fromiter((table.table_id for table in tables), _np.int64, len(tables)),
        rows_per_table,
    )
    row_rows = _np.arange(len(rows)) - _np.repeat(
        _np.cumsum(rows_per_table) - rows_per_table, rows_per_table
    )
    del tables, rows

    # One more row, all zero: the hash ``MISSING_ID`` (-1, the last) indexes.
    hashes = generator.hash_matrix(values)
    width = hashes.shape[1]
    hashes = _np.concatenate((hashes, _np.zeros((1, width), dtype=_np.uint8)))
    row_keys = _row_keys(hashes, cell_ids, row_starts, widths)
    del hashes

    # Cell positions in posting order: by value id, ties in cell order.
    present = _np.flatnonzero(cell_ids != MISSING_ID)
    value_ids = cell_ids[present]
    del cell_ids
    order = present[_np.argsort(value_ids, kind="stable")]
    offsets = _np.zeros(len(values) + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(value_ids, minlength=len(values)), out=offsets[1:])
    del present, value_ids
    posting_rows = _np.repeat(_np.arange(len(widths)), widths)[order]
    # Tables may arrive out of id order: the row table is sorted, rows of
    # one table already are.
    by_row = _np.lexsort((row_rows, row_tables))
    return SegmentBlock(
        hash_function_name=hash_function_name,
        hash_size=generator.hash_size,
        key_width=width,
        values=values,
        posting_offsets=offsets,
        table_ids=row_tables[posting_rows],
        row_indexes=row_rows[posting_rows],
        column_indexes=(order - row_starts[posting_rows]).astype(_np.int32),
        posting_keys=row_keys[posting_rows],
        row_table_ids=row_tables[by_row],
        row_row_indexes=row_rows[by_row],
        row_keys=row_keys[by_row],
        spill={},
        unpacked=(),
    )


def _row_keys(hashes: Any, cell_ids: Any, row_starts: Any, widths: Any) -> Any:
    """Every row's super key, ``(rows, key_width)`` bytes: the OR of the
    hash rows of its cells.  A row without cells (a zero-column table) gets
    key 0 — ``reduceat`` cannot express an empty segment, so it runs over
    the rows that have cells."""
    # OR is byte-order blind: eight bytes a lane when the width allows it.
    lanes = hashes.view(_np.uint64) if hashes.shape[1] % 8 == 0 else hashes
    keys = _np.zeros((len(widths), lanes.shape[1]), dtype=lanes.dtype)
    filled = widths > 0
    if filled.any():
        keys[filled] = _np.bitwise_or.reduceat(lanes[cell_ids], row_starts[filled])
    return keys.view(_np.uint8)
