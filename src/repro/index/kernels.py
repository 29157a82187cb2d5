"""Vectorized prefilter kernels over packed super-key buffers.

The XASH prefilter (line 18 of Algorithm 1) is a pure bitwise test —
``key_super_key & ~row_super_key == 0`` — evaluated for every fetched PL
item.  Walking the packed blocks row by row in Python throttles that test
with interpreter overhead; this module evaluates it over *entire* blocks at
once, directly on the fixed-width packed super-key buffers of
:class:`~repro.index.columnar.PackedSuperKeys` (zero copy), including the
XASH length-segment short-circuit and table-filtering rule 2
(``L_t - r_checked + r_match <= j_k``).

Which function serves which input:

* :func:`entry_coverage` — the reject test of *one* key entry over one whole
  posting column, memoised per :class:`~repro.index.columnar.FetchBlock`.
  It has a **numpy** lane (the packed buffer viewed via ``numpy.frombuffer``
  in the widest integer lane that tiles a slot, one ``rows & key != key``
  pass per non-zero key lane) and a **fallback** lane (pure stdlib: key
  column and buffer joined into two big integers, one arbitrary-precision
  ``keys & ~rows``, per-row zero-slice checks only on the miss mask).  Both
  execution paths start from these bitmaps.
* With numpy, every request whose fetched blocks all carry a packed buffer
  goes on to :mod:`repro.index.batch`: the bitmaps of the whole request are
  scattered into arrays once and a candidate table costs arithmetic.
* :func:`prefilter_table_block` — the table-at-a-time splice of the same
  bitmaps with C-speed ``bytes`` operations: the stdlib kernel's path
  (``MATE_KERNEL=fallback``, or no numpy installed).
* :func:`prefilter_block` — one per-table block from scratch, for blocks
  without run provenance: row-filter mode ``none`` (the SCR baseline) and
  blocks whose super keys had to be packed on the spot (legacy layout,
  spilled oversize key).  It is the stdlib big-integer kernel whichever
  kernel is selected — with numpy present these inputs are the only ones
  left over, too few to keep a second implementation for.

All of them produce the *identical* survivor list, counter increments, and
rule-2 abandon point as the legacy per-row loop — the differential kernel
test suite (``tests/test_kernels.py``) and the batch-execution suite
(``tests/test_batch_execution.py``) pin that equivalence down, and the
plan-equivalence suite proves end-to-end top-k byte-identity with kernels
forced on and off.

Kernel selection: the ``MATE_KERNEL`` environment variable (``auto``,
``numpy``, ``fallback``, ``off``) sets the process default; tests override
it with :func:`set_kernel` / :func:`use_kernel`.  When numpy is not
installed, ``auto`` and ``numpy`` degrade to the stdlib fallback.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

try:  # numpy is an optional accelerator (the ``accel`` extra), never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None

#: Recognised kernel selections.
KERNEL_CHOICES: tuple[str, ...] = ("auto", "numpy", "fallback", "off")

#: Environment variable holding the process-wide default selection.
KERNEL_ENV_VAR = "MATE_KERNEL"

#: One key-map entry: the query key tuple and its aggregated super key.
KeyEntry = tuple[tuple[str, ...], int]

_choice = os.environ.get(KERNEL_ENV_VAR, "auto")
if _choice not in KERNEL_CHOICES:
    _choice = "auto"


def numpy_available() -> bool:
    """Whether the numpy kernel can run in this process."""
    return _np is not None


def kernel_choice() -> str:
    """The current (unresolved) kernel selection."""
    return _choice


def active_kernel() -> str | None:
    """The kernel that would execute now: ``"numpy"``, ``"fallback"``, ``None``.

    ``None`` means kernels are switched off and callers must use their
    per-row path.  ``auto`` and ``numpy`` resolve to the fallback when numpy
    is unavailable, so forcing ``numpy`` in a no-numpy environment degrades
    rather than fails (the differential suite skips those cases explicitly).
    """
    if _choice == "off":
        return None
    if _choice == "fallback":
        return "fallback"
    return "numpy" if _np is not None else "fallback"


def set_kernel(choice: str) -> None:
    """Set the process-wide kernel selection."""
    global _choice
    if choice not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel choice {choice!r}; expected one of {KERNEL_CHOICES}"
        )
    _choice = choice


@contextmanager
def use_kernel(choice: str) -> Iterator[None]:
    """Temporarily force a kernel selection (test helper)."""
    previous = _choice
    set_kernel(choice)
    try:
        yield
    finally:
        set_kernel(previous)


class PrefilterResult:
    """Survivors and exact counter deltas of one block prefilter pass."""

    __slots__ = (
        "surviving",
        "rows_checked",
        "rows_matched",
        "superkey_checks",
        "short_circuit_hits",
        "abandoned",
    )

    def __init__(
        self,
        surviving: list[tuple[int, tuple[str, ...]]],
        rows_checked: int,
        rows_matched: int,
        superkey_checks: int,
        short_circuit_hits: int,
        abandoned: bool,
    ):
        #: ``(row_index, key_tuple)`` pairs, in the legacy loop's order
        #: (row-major, key-map entry order within a row).
        self.surviving = surviving
        #: Rows scanned before the rule-2 abandon point (= legacy
        #: ``counters.rows_checked`` delta).
        self.rows_checked = rows_checked
        #: Rows with at least one surviving key entry (rule-2 bookkeeping).
        self.rows_matched = rows_matched
        #: Super-key subsumption checks performed (``superkey`` mode only).
        self.superkey_checks = superkey_checks
        #: Checks answered by the XASH length-segment short-circuit.
        self.short_circuit_hits = short_circuit_hits
        #: Whether table-filtering rule 2 abandoned the scan mid-block.
        self.abandoned = abandoned


def _runs_from_values(values: Sequence[str]) -> list[tuple[str, int, int]]:
    """Maximal runs of equal consecutive probe values (defensive fallback)."""
    runs: list[tuple[str, int, int]] = []
    start = 0
    previous: str | None = None
    position = 0
    for position, value in enumerate(values):
        if value != previous:
            if previous is not None:
                runs.append((previous, start, position))
            previous = value
            start = position
    if previous is not None:
        runs.append((previous, start, position + 1))
    return runs


def _entry_scalar(
    packed, width: int, start: int, end: int, key_super_key: int,
    length_shift: int | None,
) -> tuple[list[bool], list[bool]]:
    """Per-row reject test for a key too wide for the packed width (rare)."""
    covered: list[bool] = []
    short_circuited: list[bool] = []
    from_bytes = int.from_bytes
    for position in range(start, end):
        row = from_bytes(packed[position * width : (position + 1) * width], "big")
        covered.append(key_super_key & ~row == 0)
        if length_shift is not None:
            short_circuited.append(
                (key_super_key >> length_shift) & ~(row >> length_shift) != 0
            )
    return covered, short_circuited


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


def _entry_coverage_numpy(packed, width, key_super_key, length_shift, n):
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


def _entry_coverage_fallback(packed, width, key_super_key, length_shift, n):
    from_bytes = int.from_bytes
    key_bytes = key_super_key.to_bytes(width, "big")
    miss = from_bytes(key_bytes * n, "big") & ~from_bytes(bytes(packed), "big")
    track_sc = length_shift is not None and length_shift < 8 * width
    if miss == 0:
        return b"\x01" * n, (b"\x00" * n if track_sc else None)
    miss_bytes = miss.to_bytes(n * width, "big")
    zero_slot = bytes(width)
    cov = bytearray(n)
    for position in range(n):
        if miss_bytes[position * width : (position + 1) * width] == zero_slot:
            cov[position] = 1
    sc = None
    if track_sc:
        mask = ((1 << (8 * width - length_shift)) - 1) << length_shift
        sc_hits = miss & from_bytes(mask.to_bytes(width, "big") * n, "big")
        sc = bytearray(n)
        if sc_hits:
            sc_bytes = sc_hits.to_bytes(n * width, "big")
            for position in range(n):
                if (
                    sc_bytes[position * width : (position + 1) * width]
                    != zero_slot
                ):
                    sc[position] = 1
        sc = bytes(sc)
    return bytes(cov), sc


def entry_coverage(
    packed,
    width: int,
    key_super_key: int,
    length_shift: int | None,
    kernel: str | None = None,
) -> tuple[bytes, bytes | None]:
    """Coverage bitmap of one key entry over one packed super-key column.

    This is the whole-posting-list primitive behind the fast prefilter
    path: evaluated once per ``(probe value, key entry)`` on the per-value
    :class:`~repro.index.columnar.FetchBlock` (hundreds to thousands of
    rows), then *sliced* into the per-table blocks — so the vector pass is
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
    if kernel is None:
        kernel = active_kernel() or "fallback"
    if kernel == "numpy" and _np is None:
        kernel = "fallback"
    try:
        if kernel == "numpy":
            return _entry_coverage_numpy(
                packed, width, key_super_key, length_shift, n
            )
        return _entry_coverage_fallback(
            packed, width, key_super_key, length_shift, n
        )
    except OverflowError:
        # Key wider than the packed slots (oversize escape hatch): per-row
        # arbitrary-precision path.
        track = length_shift is not None and length_shift < 8 * width
        cov_list, sc_list = _entry_scalar(
            packed, width, 0, n, key_super_key, length_shift if track else None
        )
        sc = bytes(bytearray(sc_list)) if track else None
        return bytes(bytearray(cov_list)), sc


def _nth_zero(matched, nth: int, n: int) -> int:
    """Position of the ``nth`` (1-based) zero byte in ``matched``.

    The caller guarantees at least ``nth`` zeros exist.  Narrows down with
    chunked ``count`` calls so the per-zero Python loop never exceeds one
    chunk.
    """
    position = 0
    remaining = nth
    chunk = 256
    while True:
        upper = min(position + chunk, n)
        zeros_here = matched.count(0, position, upper)
        if zeros_here >= remaining:
            index = matched.find(0, position, upper)
            while remaining > 1:
                index = matched.find(0, index + 1, upper)
                remaining -= 1
            return index
        remaining -= zeros_here
        position = upper


def prefilter_table_block(
    *,
    row_indexes: Sequence[int],
    run_cov: Sequence[
        tuple[int, int, int, Sequence[KeyEntry], Sequence[tuple[bytes, bytes | None]]]
    ],
    posting_count: int,
    min_joinability: int | None = None,
) -> PrefilterResult:
    """Prefilter one per-table block from precomputed coverage bitmaps.

    ``run_cov`` holds one entry per contributing fetch-block run:
    ``(table_start, fetch_start, count, entries, per_level)`` where
    ``per_level[i]`` is the :func:`entry_coverage` result of ``entries[i]``
    over the *source* fetch block.  The heavy bitwise work already happened
    there; this function only splices, applies table-filtering rule 2, and
    extracts survivors — all with C-speed ``bytes`` operations, so it is
    kernel-agnostic and fast even on the few-row blocks typical of
    per-table grouping.
    """
    n = len(row_indexes)
    matched = bytearray(n)
    from_bytes = int.from_bytes
    for table_start, fetch_start, count, _entries, per_level in run_cov:
        if len(per_level) == 1:
            matched[table_start : table_start + count] = per_level[0][0][
                fetch_start : fetch_start + count
            ]
        else:
            acc = from_bytes(
                per_level[0][0][fetch_start : fetch_start + count], "big"
            )
            for cov, _sc in per_level[1:]:
                acc |= from_bytes(cov[fetch_start : fetch_start + count], "big")
            matched[table_start : table_start + count] = acc.to_bytes(
                count, "big"
            )

    # Rule 2 asks, before each row, whether even an all-matching remainder
    # could still reach the current minimum joinability.  Algebraically the
    # scan abandons at the first position whose prefix holds
    # ``deficit = posting_count - min_joinability`` unmatched rows — so the
    # cutoff is found with C-speed byte counting instead of a per-row loop.
    if min_joinability is None:
        cutoff, abandoned = n, False
        rows_matched = matched.count(1)
    else:
        deficit = posting_count - min_joinability
        total_matched = matched.count(1)
        if deficit <= 0:
            cutoff, abandoned = 0, n > 0
            rows_matched = 0
        elif n - total_matched - (0 if n == 0 or matched[n - 1] else 1) < deficit:
            # Fewer than ``deficit`` unmatched rows before the last check:
            # the scan runs to completion.
            cutoff, abandoned = n, False
            rows_matched = total_matched
        else:
            cutoff, abandoned = _nth_zero(matched, deficit, n) + 1, True
            rows_matched = cutoff - deficit

    superkey_checks = 0
    short_circuit_hits = 0
    surviving: list[tuple[int, tuple[str, ...]]] = []
    for table_start, fetch_start, count, entries, per_level in run_cov:
        if table_start >= cutoff:
            continue
        overlap = min(count, cutoff - table_start)
        superkey_checks += overlap * len(entries)
        for _cov, sc in per_level:
            if sc is not None:
                short_circuit_hits += sc.count(
                    1, fetch_start, fetch_start + overlap
                )
        if len(per_level) == 1:
            key_tuple = entries[0][0]
            cov = per_level[0][0]
            hit = cov.find(1, fetch_start, fetch_start + overlap)
            while hit >= 0:
                surviving.append(
                    (row_indexes[table_start + hit - fetch_start], key_tuple)
                )
                hit = cov.find(1, hit + 1, fetch_start + overlap)
        else:
            limit = table_start + overlap
            hit = matched.find(1, table_start, limit)
            while hit >= 0:
                offset = fetch_start + hit - table_start
                row_index = row_indexes[hit]
                for (key_tuple, _sk), (cov, _sc) in zip(entries, per_level):
                    if cov[offset]:
                        surviving.append((row_index, key_tuple))
                hit = matched.find(1, hit + 1, limit)

    return PrefilterResult(
        surviving=surviving,
        rows_checked=cutoff,
        rows_matched=rows_matched,
        superkey_checks=superkey_checks,
        short_circuit_hits=short_circuit_hits,
        abandoned=abandoned,
    )


def _level_runs(run_entries, level: int):
    """The run-entry triples that still have a key entry at ``level``."""
    if level == 0:
        return list(enumerate(run_entries))
    return [
        (index, triple)
        for index, triple in enumerate(run_entries)
        if len(triple[2]) > level
    ]


def _prefilter_fallback(packed, width, run_entries, length_shift, n):
    """Whole-block coverage via one big-integer bit pass per entry level.

    Returns ``(matched, sc_count, levels)`` where ``levels`` holds
    run-structured coverage: ``(level, run_id, start, end, cov)`` with
    ``cov`` either a per-row boolean list or ``None`` ("every row covered").
    """
    matched = bytearray(n)
    track_sc = length_shift is not None and length_shift < 8 * width
    sc_count: list[int] | None = [0] * n if track_sc else None
    mask_bytes = (
        (((1 << (8 * width - length_shift)) - 1) << length_shift).to_bytes(
            width, "big"
        )
        if track_sc
        else b""
    )
    zero_slot = bytes(width)
    from_bytes = int.from_bytes
    max_levels = max(len(entries) for _, _, entries in run_entries)
    levels = []
    for level in range(max_levels):
        runs = _level_runs(run_entries, level)
        key_parts: list[bytes] = []
        seg_parts: list[bytes] = []
        metas: list[tuple[int, int, int]] = []
        for run_id, (start, end, entries) in runs:
            key_super_key = entries[level][1]
            try:
                key_bytes = key_super_key.to_bytes(width, "big")
            except OverflowError:
                cov, sc_list = _entry_scalar(
                    packed, width, start, end, key_super_key,
                    length_shift if track_sc else None,
                )
                for offset, hit in enumerate(cov):
                    if hit:
                        matched[start + offset] = 1
                if sc_count is not None:
                    for offset, hit in enumerate(sc_list):
                        if hit:
                            sc_count[start + offset] += 1
                levels.append((level, run_id, start, end, cov))
                continue
            key_parts.append(key_bytes * (end - start))
            seg_parts.append(bytes(packed[start * width : end * width]))
            metas.append((run_id, start, end))
        if not metas:
            continue
        total = sum(end - start for _, start, end in metas)
        miss = from_bytes(b"".join(key_parts), "big") & ~from_bytes(
            b"".join(seg_parts), "big"
        )
        if miss == 0:
            for run_id, start, end in metas:
                matched[start:end] = b"\x01" * (end - start)
                levels.append((level, run_id, start, end, None))
            continue
        miss_bytes = miss.to_bytes(total * width, "big")
        sc_bytes = None
        if sc_count is not None:
            sc_hits = miss & from_bytes(mask_bytes * total, "big")
            if sc_hits:
                sc_bytes = sc_hits.to_bytes(total * width, "big")
        cursor = 0
        for run_id, start, end in metas:
            count = end - start
            cov = [
                miss_bytes[offset : offset + width] == zero_slot
                for offset in range(
                    cursor * width, (cursor + count) * width, width
                )
            ]
            for offset, hit in enumerate(cov):
                if hit:
                    matched[start + offset] = 1
            if sc_bytes is not None:
                base = cursor * width
                for offset in range(count):
                    if (
                        sc_bytes[base + offset * width : base + (offset + 1) * width]
                        != zero_slot
                    ):
                        sc_count[start + offset] += 1
            levels.append((level, run_id, start, end, cov))
            cursor += count
    return matched, sc_count, levels, max_levels == 1


def _extract_fallback(levels, run_entries, row_indexes, cutoff, ordered):
    hits = []
    for level, run_id, start, end, cov in levels:
        if start >= cutoff:
            continue
        limit = min(end, cutoff) - start
        key_tuple = run_entries[run_id][2][level][0]
        positions = (
            range(limit)
            if cov is None
            else [offset for offset in range(limit) if cov[offset]]
        )
        hits.extend((start + offset, level, key_tuple) for offset in positions)
    if not ordered:
        hits.sort(key=lambda hit: (hit[0], hit[1]))
    return [(row_indexes[position], key_tuple) for position, _, key_tuple in hits]


def _cutoff_scalar(matched, posting_count, min_joinability, n):
    rows_matched = 0
    for position in range(n):
        if posting_count - position + rows_matched <= min_joinability:
            return position, True
        rows_matched += matched[position]
    return n, False


def _prefilter_none(run_entries, row_indexes, posting_count, min_joinability, n):
    """Mode ``"none"`` (the SCR baseline): every key entry survives."""
    matched = bytearray(n)
    for start, end, _entries in run_entries:
        matched[start:end] = b"\x01" * (end - start)
    if min_joinability is None:
        cutoff, abandoned = n, False
    else:
        cutoff, abandoned = _cutoff_scalar(
            matched, posting_count, min_joinability, n
        )
    surviving: list[tuple[int, tuple[str, ...]]] = []
    for start, end, entries in run_entries:
        if start >= cutoff:
            break
        key_tuples = [key_tuple for key_tuple, _ in entries]
        for position in range(start, min(end, cutoff)):
            row_index = row_indexes[position]
            surviving.extend((row_index, key_tuple) for key_tuple in key_tuples)
    return PrefilterResult(
        surviving=surviving,
        rows_checked=cutoff,
        rows_matched=sum(matched[:cutoff]),
        superkey_checks=0,
        short_circuit_hits=0,
        abandoned=abandoned,
    )


def prefilter_block(
    *,
    values: Sequence[str],
    row_indexes: Sequence[int],
    key_map: Mapping[str, Sequence[KeyEntry]],
    posting_count: int,
    value_runs: Sequence[tuple[str, int, int]] | None = None,
    packed=None,
    width: int = 0,
    mode: str = "superkey",
    length_shift: int | None = None,
    min_joinability: int | None = None,
    kernel: str | None = None,
) -> PrefilterResult:
    """Run the super-key prefilter over one per-table block, vectorized.

    Parameters mirror the inner loop of the legacy
    :class:`~repro.plan.stages.SuperKeyPrefilter`: ``values`` /
    ``row_indexes`` are the block's parallel columns, ``packed`` the
    big-endian fixed-``width`` super-key buffer (``n * width`` bytes),
    ``key_map`` the query's value -> key-entry mapping, ``length_shift`` the
    XASH length-segment bit position (``None`` disables the short-circuit),
    and ``min_joinability`` the current ``j_k`` when table-filtering rule 2
    is armed (``None`` disables it).  ``mode`` is ``"superkey"`` (the real
    filter) or ``"none"`` (the SCR baseline: every key entry survives).

    The result is bit-for-bit what the per-row loop produces: same survivor
    pairs in the same order, same counter deltas, same abandon point.
    ``kernel`` is accepted for compatibility and ignored: every selection
    runs the stdlib kernel here (see the module docstring).
    """
    if mode not in ("superkey", "none"):
        raise ValueError(f"prefilter kernels cannot run row-filter mode {mode!r}")
    n = len(row_indexes)
    if mode == "superkey":
        if packed is None:
            raise ValueError("superkey mode requires a packed super-key buffer")
        if width <= 0 or len(packed) != n * width:
            raise ValueError(
                f"packed buffer of {len(packed)} bytes does not hold "
                f"{n} keys of width {width}"
            )
    if value_runs is None:
        value_runs = _runs_from_values(values)

    run_entries = []
    for value, start, end in value_runs:
        entries = key_map.get(value, ())
        if entries:
            run_entries.append((start, end, entries))

    if not run_entries:
        # No probe value of this block maps to a key entry: nothing can
        # match, and rule 2 degenerates to a pure countdown.
        if min_joinability is None:
            cutoff, abandoned = n, False
        elif posting_count - min_joinability <= 0:
            cutoff, abandoned = 0, n > 0
        else:
            cutoff = min(n, posting_count - min_joinability)
            abandoned = cutoff < n
        return PrefilterResult([], cutoff, 0, 0, 0, abandoned)

    if mode == "none":
        return _prefilter_none(
            run_entries, row_indexes, posting_count, min_joinability, n
        )

    matched, sc_count, levels, ordered = _prefilter_fallback(
        packed, width, run_entries, length_shift, n
    )
    if min_joinability is None:
        cutoff, abandoned = n, False
    else:
        cutoff, abandoned = _cutoff_scalar(
            matched, posting_count, min_joinability, n
        )
    rows_matched = sum(matched[:cutoff])
    short_circuit_hits = sum(sc_count[:cutoff]) if sc_count is not None else 0
    surviving = _extract_fallback(levels, run_entries, row_indexes, cutoff, ordered)

    superkey_checks = 0
    for start, end, entries in run_entries:
        overlap = min(end, cutoff) - start
        if overlap > 0:
            superkey_checks += overlap * len(entries)

    return PrefilterResult(
        surviving=surviving,
        rows_checked=cutoff,
        rows_matched=rows_matched,
        superkey_checks=superkey_checks,
        short_circuit_hits=short_circuit_hits,
        abandoned=abandoned,
    )
