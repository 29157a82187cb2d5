"""Dictionary encoding of table cells to dense integer ids.

The bulk index build and the ingest buffer (:mod:`repro.index.bulk`'s
``encode_tables``) intern a batch of tables' cells against one fresh value
dictionary, so a value's postings, hash row and sketch tokens are addressed
by its id — ids are assigned by a dictionary, never by ``hash()``, so two
equal ids always mean two equal strings.  The dictionary lives as long as
that one pass: nothing here is process-wide.  Row verification reads no
encoded cell either: it matches the pairs' rows against the postings the
index already holds (:mod:`repro.index.batch`).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as _np

#: Id of a missing cell.
MISSING_ID = -1


def intern_cells(cells: Sequence[str], ids: dict[str, int], dtype: Any) -> Any:
    """The dense id of every cell, as one flat array of ``dtype``.

    ``ids`` is a value dictionary that already maps the missing value to
    :data:`MISSING_ID`; a value not in it yet gets the next id, in
    first-seen order.
    """
    for value in dict.fromkeys(cells):
        if value not in ids:
            ids[value] = len(ids) - 1
    return _np.fromiter(map(ids.__getitem__, cells), dtype, len(cells))
