"""Columnar (struct-of-arrays) posting lists.

One Python record per PL item, materialised again on every fetch, is the
per-row object overhead that in-memory analytics engines eliminate with
columnar, array-packed layouts.  An
:class:`~repro.index.inverted.InvertedIndex` is one CSR block
(:class:`~repro.storage.segment_block.SegmentBlock`); it serves that block
through :class:`FetchBlock` s, the struct-of-arrays result of
``fetch_batch``: the postings of one value as four parallel integer columns
(table ids, column indexes, row indexes, row ordinals) plus the packed
buffer of its super keys.  The row columns are gathered from the block's row
table through the value's row ordinals at its first fetch, the column
indexes and row ordinals are slices of the block, and the index memoises
the block, so repeated fetches do no per-item work and find the block's
coverage memo warm.

A request keeps its :class:`FetchBlock` s and :mod:`repro.index.batch` turns
their columns and memoised coverage bitmaps into request-level arrays.
Nothing here is ever read as per-item records: columns in, columns out.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Entries a fetch block's coverage memo holds before it starts over.  Every
#: entry is two bitmaps of the block's length and an index's memoised blocks
#: outlive the request, so without a bound each distinct key tuple ever
#: probed against a hot value would stay behind; a dropped entry costs one
#: vector pass.
COVERAGE_MEMO_ENTRIES = 64


def column_view(data, typecode: str) -> memoryview:
    """``data``'s bytes as a flat view of ``typecode`` items.

    Cast through bytes: a numpy ``int64`` array exports format ``'l'``,
    not ``'q'``, on Linux, a packed key column ``V<width>``, and every
    consumer compares typecodes.  A numpy array is flattened first —
    :class:`memoryview` refuses to cast an ``(0, width)`` key matrix
    ("zeros in shape"), which is what a block without rows holds.
    Iterating the view yields Python integers.
    """
    if isinstance(data, np.ndarray):
        data = data.reshape(-1).view(np.uint8)
    return memoryview(data).cast("B").cast(typecode)


class FetchBlock:
    """Struct-of-arrays fetch result of one probe value.

    The posting columns are views of the columns gathered at the value's
    first fetch (no copy per fetch), and so is the fixed-width super-key
    buffer (``super_key_bytes`` / ``key_width``) that the vectorized
    prefilter kernels consume as it is.  ``row_ordinals`` numbers each
    posting's row the way the index that served the block numbers its rows
    (the numbering of its ``row_postings`` read, which row verification
    matches against); only :mod:`repro.index.batch` reads it, through
    numpy, whatever its integer width.  Blocks are snapshots of the
    immutable index block they were sliced from; they compare by identity.
    """

    __slots__ = ("value", "table_ids", "column_indexes", "row_indexes",
                 "row_ordinals", "super_key_bytes", "key_width", "_cov_cache")

    def __init__(
        self,
        value: str,
        table_ids: Sequence[int],
        column_indexes: Sequence[int],
        row_indexes: Sequence[int],
        row_ordinals: Sequence[int],
        super_key_bytes,
        key_width: int,
    ):
        self.value = value
        self.table_ids = table_ids
        self.column_indexes = column_indexes
        self.row_indexes = row_indexes
        self.row_ordinals = row_ordinals
        self.super_key_bytes = super_key_bytes
        self.key_width = key_width
        self._cov_cache: dict | None = None

    def entry_coverage(
        self, key_super_key: int, length_shift: int | None
    ) -> tuple[bytes, bytes | None]:
        """Memoised :func:`~repro.index.kernels.entry_coverage` of this block.

        The vector pass over the whole posting column runs once per key
        entry and every candidate table holding a slice of this fetch block
        reuses the bitmaps — that amortisation is what makes the array path
        beat the row loop even on few-row candidate tables.
        """
        cache = self._coverage_memo(1)
        token = (key_super_key, length_shift)
        hit = cache.get(token)
        if hit is None:
            from .kernels import entry_coverage

            hit = cache[token] = entry_coverage(
                self.super_key_bytes,
                self.key_width,
                key_super_key,
                length_shift,
            )
        return hit

    def _coverage_memo(self, room: int) -> dict:
        """The coverage memo, started over when ``room`` more entries would
        take it past :data:`COVERAGE_MEMO_ENTRIES` — wholesale, so what the
        current request adds afterwards stays together."""
        cache = self._cov_cache
        if cache is None or len(cache) + room > COVERAGE_MEMO_ENTRIES:
            cache = self._cov_cache = {}
        return cache

    def query_coverage(
        self, entries, length_shift: int | None
    ) -> list[tuple[bytes, bytes | None]]:
        """All of a query value's entry bitmaps, memoised as one list.

        ``entries`` is the query key map's entry list for this block's value;
        the memo keeps a reference to it and matches by identity (safe: a
        held reference cannot be recycled), so the per-run cost inside one
        query drops to a single dict hit even for multi-entry values.
        """
        cache = self._cov_cache
        token = ("query", length_shift)
        hit = cache.get(token) if cache is not None else None
        if hit is not None and hit[0] is entries:
            return hit[1]
        # Room for all of this query's entries first, so they stay together.
        self._coverage_memo(len(entries) + 1)
        per_level = [
            self.entry_coverage(key_super_key, length_shift)
            for _key_tuple, key_super_key in entries
        ]
        self._coverage_memo(1)[token] = (entries, per_level)
        return per_level

    def __len__(self) -> int:
        return len(self.row_indexes)
