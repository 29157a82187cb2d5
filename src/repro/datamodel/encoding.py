"""Dictionary encoding of table cells to dense integer ids.

The request verification kernel
(:func:`repro.core.joinability.verify_request`) compares cells as integers:
a table becomes a ``(rows, columns)`` ``int32`` matrix and a request's key
tuples a ``(keys, width)`` matrix over the *same* value dictionary, so
``matrix[row, column] == key_ids[key, position]`` holds exactly when the two
strings are equal — ids are assigned by a dictionary, never by ``hash()``,
so there is nothing to confirm afterwards.

One process-wide :class:`ValueEncoder` (:data:`ENCODER`) serves every engine,
because the tables it encodes are shared too (shard engines hold the same
:class:`~repro.datamodel.table.Table` objects as the session's corpus):

* **lifetime** — a table is encoded the first time a request that keeps a
  surviving pair in it gathers it (:meth:`ValueEncoder.matrices`, once per
  request for all of its candidate tables; row filter ``oracle`` gathers
  every candidate's postings once more, before the prefilter) and stays encoded while the table object is alive (the entry is
  keyed by ``id(table)`` and dropped by a weak-reference callback), a
  request's keys once per request;
* **bound** — when the dictionary holds :data:`MAX_VALUE_IDS` values it is
  dropped together with every encoded table (in the manner of
  :class:`repro.hashing.base.Memo`) and the *generation* is bumped.  The
  bound is checked once per gather, so a gather drops the dictionary at
  most once and may leave it larger than the bound by the values of its
  own tables.  Matrices and key matrices carry the generation they were
  encoded in, so a request still holding ids of the old generation
  re-encodes its keys instead of comparing ids of two dictionaries;
* **invalidation** — none: a table's rows never change after construction
  (an edit is a new :class:`~repro.datamodel.table.Table` that
  ``DiscoverySession.ingest`` puts in the old one's place), so the
  weak-reference expiry covers every entry;
* **threads** — ids are assigned under one lock (``len(ids)`` followed by an
  insert is a race otherwise); the kernel reads finished, immutable
  matrices without it.

Nothing here is pickled: worker processes start with an empty encoder.
"""

from __future__ import annotations

import threading
import weakref
from itertools import chain
from typing import TYPE_CHECKING, Any, Sequence

import numpy as _np

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from .table import Table

#: Distinct values the dictionary holds before it, and every matrix encoded
#: with it, is dropped.  The same size as the hash memo's bound: several
#: times the distinct values of the largest benchmark corpus.
MAX_VALUE_IDS = 1 << 18

#: Id of a missing cell.
MISSING_ID = -1
#: Id of a missing *key* value: equal to no cell, a missing one included.
NO_MATCH_ID = -2


def intern_cells(cells: Sequence[str], ids: dict[str, int], dtype: Any) -> Any:
    """The dense id of every cell, as one flat array of ``dtype``.

    ``ids`` is a value dictionary that already maps the missing value to
    :data:`MISSING_ID`; a value not in it yet gets the next id, in
    first-seen order.  The one interning routine of the repository: the
    process-wide :class:`ValueEncoder` and the bulk index build
    (:mod:`repro.index.bulk`) both assign ids through it.
    """
    for value in dict.fromkeys(cells):
        if value not in ids:
            ids[value] = len(ids) - 1
    return _np.fromiter(map(ids.__getitem__, cells), dtype, len(cells))


class EncodedKeys:
    """One request's key tuples and, once encoded, their id matrix."""

    __slots__ = ("tuples", "repeated", "ids", "generation")

    def __init__(self, tuples: Sequence[tuple[str, ...]]):
        #: The key tuples; row ``i`` of :attr:`ids` encodes ``tuples[i]``.
        self.tuples = tuples
        #: Whether some key tuple holds one value twice — only then can two
        #: key positions be found in the same column of a row.
        self.repeated = any(len(set(values)) < len(values) for values in tuples)
        #: ``(len(tuples), width)`` ``int32`` ids, ``None`` until first used.
        self.ids: Any = None
        #: Dictionary generation :attr:`ids` belongs to.
        self.generation = -1


class ValueEncoder:
    """The value dictionary plus the table matrices encoded with it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._generation = 0
        self._ids: dict[str, int] = {"": MISSING_ID}
        #: ``id(table) -> (weak reference, generation, matrix)``.
        self._tables: dict[int, tuple[weakref.ref, int, Any]] = {}

    def __len__(self) -> int:
        """Values in the dictionary (the quantity :data:`MAX_VALUE_IDS` bounds)."""
        return len(self._ids) - 1

    def matrices(self, tables: Sequence["Table"], keys: EncodedKeys) -> list:
        """Every table's id matrix, all with ``keys.ids`` in one generation.

        The common case — every table already encoded, keys of their
        generation — takes no lock.  Everything else happens under it: the
        bound is checked once, then whatever is missing (tables, keys) is
        encoded against one dictionary, so a request never compares ids of
        two generations, however many tables it gathers.
        """
        generation = keys.generation
        entries = list(map(self._tables.get, map(id, tables)))
        if all(entry is not None and entry[1] == generation for entry in entries):
            return [entry[2] for entry in entries]
        with self._lock:
            if len(self) >= MAX_VALUE_IDS:
                self._drop()
            generation = self._generation
            matrices = [self._matrix(table, generation) for table in tables]
            if keys.generation != generation:
                keys.ids = self._encode_keys(keys.tuples)
                keys.generation = generation
            return matrices

    def _drop(self) -> None:
        """Start over: dictionary, matrices, generation (lock held)."""
        self._ids = {"": MISSING_ID}
        self._tables.clear()
        self._generation += 1

    def _matrix(self, table: "Table", generation: int):
        """``table``'s matrix, encoded now if it is not yet (lock held)."""
        key = id(table)
        entry = self._tables.get(key)
        if entry is None:
            entry = (
                weakref.ref(table, lambda ref: self._expire(key, ref)),
                generation,
                self._encode_rows(table.rows, table.num_columns),
            )
            self._tables[key] = entry
        return entry[2]

    def _expire(self, key: int, ref: weakref.ref) -> None:
        # Runs when a table is collected, possibly inside a locked section
        # of this very thread, so it must not take the lock.
        entry = self._tables.get(key)
        if entry is not None and entry[0] is ref:
            self._tables.pop(key, None)

    def _encode_rows(self, rows, num_columns: int):
        """``rows`` as a ``(rows, columns)`` id matrix (lock held)."""
        cells = list(chain.from_iterable(rows))
        return intern_cells(cells, self._ids, _np.int32).reshape(
            len(rows), num_columns
        )

    def _encode_keys(self, tuples: Sequence[tuple[str, ...]]):
        """The key tuples as an id matrix (lock held)."""
        values = list(chain.from_iterable(tuples))
        # An unseen key value gets a real id, not a sentinel: a table
        # encoded later in this generation may hold it.
        ids = intern_cells(values, self._ids, _np.int32).reshape(
            len(tuples), len(tuples[0]) if tuples else 0
        )
        ids[ids == MISSING_ID] = NO_MATCH_ID
        return ids


#: The process-wide encoder.
ENCODER = ValueEncoder()
