"""The vectorized super-key reject test over packed super-key buffers.

The XASH prefilter (line 18 of Algorithm 1) is a pure bitwise test —
``key_super_key & ~row_super_key == 0`` — evaluated for every fetched PL
item.  :func:`entry_coverage` evaluates it for one key entry over one
*entire* posting column at once, directly on the fixed-width packed
super-key buffer of a :class:`~repro.index.columnar.FetchBlock` (zero
copy), including the XASH length-segment short-circuit: the buffer is
viewed via ``numpy.frombuffer`` in the widest integer lane that tiles a
slot, and one ``rows & key != key`` pass runs per non-zero key lane.

The bitmaps are memoised per fetch block
(:meth:`~repro.index.columnar.FetchBlock.query_coverage`) and scattered into
request-level arrays by :mod:`repro.index.batch`, where a candidate table
costs arithmetic.  They reproduce the per-row test
(:meth:`repro.core.filters.RowFilter.passes`) exactly — the kernel test
suite (``tests/test_kernels.py``) and the batch-execution suite
(``tests/test_batch_execution.py``, against ``tests/helpers.legacy_discover``)
pin that equivalence down.  A key must fit the packed width: an engine
whose hash size differs from its index's is refused at construction.
"""

from __future__ import annotations

import numpy as _np

#: One key-map entry: the query key tuple and its aggregated super key.
KeyEntry = tuple[tuple[str, ...], int]


def _coverage_dtype(width: int):
    """Widest lane that tiles the packed slot (zero-tests are endian-safe)."""
    if width % 8 == 0:
        return _np.uint64, width // 8
    if width % 4 == 0:
        return _np.uint32, width // 4
    if width % 2 == 0:
        return _np.uint16, width // 2
    return _np.uint8, width


def _rows_lacking(rows2d, wanted):
    """Rows that lack a bit of ``wanted`` (one lane value per column).

    ``None`` when ``wanted`` is all zero: no row lacks anything.  One
    scalar-operand pass per non-zero lane — a broadcast of the whole key
    over ``(n, lanes)`` would run ``n`` inner loops of ``lanes`` elements.
    """
    lacking = None
    for lane, bits in enumerate(wanted):
        if bits:
            miss = (rows2d[:, lane] & bits) != bits
            lacking = miss if lacking is None else lacking | miss
    return lacking


def _coverage_bitmaps(packed, width, key_super_key, length_shift, n):
    # The reject test only asks whether ``key & ~row`` has any set bit, so
    # the byte buffer can be reinterpreted in the widest lane that tiles the
    # slot — endianness never matters for an any-bits-set test as long as
    # key, mask, and rows use the same reinterpretation.
    dtype, lanes = _coverage_dtype(width)
    rows2d = _np.frombuffer(packed, dtype=dtype).reshape(n, lanes)
    key_np = _np.frombuffer(key_super_key.to_bytes(width, "big"), dtype=dtype)
    uncovered = _rows_lacking(rows2d, key_np)
    cov = b"\x01" * n if uncovered is None else (~uncovered).tobytes()
    sc = None
    if length_shift is not None and length_shift < 8 * width:
        # Short-circuited: a key bit of the length segment the row lacks.
        mask = ((1 << (8 * width - length_shift)) - 1) << length_shift
        segment = _np.frombuffer(
            (key_super_key & mask).to_bytes(width, "big"), dtype=dtype
        )
        hit = _rows_lacking(rows2d, segment)
        sc = bytes(n) if hit is None else hit.tobytes()
    return cov, sc


def entry_coverage(
    packed,
    width: int,
    key_super_key: int,
    length_shift: int | None,
) -> tuple[bytes, bytes | None]:
    """Coverage bitmap of one key entry over one packed super-key column.

    This is the whole-posting-list primitive behind the prefilter:
    evaluated once per ``(probe value, key entry)`` on the per-value
    :class:`~repro.index.columnar.FetchBlock` (hundreds to thousands of
    rows), then scattered into the request's arrays — so the vector pass is
    amortised over every candidate table that shares the value.

    Returns ``(covered, short_circuited)`` as one byte per row (``0`` /
    ``1``); ``short_circuited`` is ``None`` when the hash has no length
    segment to pre-check.
    """
    if width <= 0 or len(packed) % width:
        raise ValueError(
            f"packed buffer of {len(packed)} bytes is not a multiple of "
            f"width {width}"
        )
    n = len(packed) // width
    if n == 0:
        track_sc = length_shift is not None and length_shift < 8 * width
        return b"", (b"" if track_sc else None)
    return _coverage_bitmaps(packed, width, key_super_key, length_shift, n)
