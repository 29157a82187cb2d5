"""Super-key generation and membership checks (Section 5.1 / 6.3).

A *super key* is the OR-aggregation of the hashes of every cell value in a
table row.  It acts like a per-row bloom filter: given the aggregated hash of
a composite key value combination, a single bitwise check decides whether the
row could possibly contain that combination.  The check can produce false
positives (which the exact verification step removes) but — by construction —
never false negatives.

:class:`SuperKeyGenerator` wraps a :class:`~repro.hashing.base.HashFunction`
and provides the three operations the rest of the system needs:

* ``row_super_key``      — super key of a candidate-table row,
* ``key_super_key``      — aggregated hash of a query key value combination,
* ``covers``             — the subsumption check of Section 6.3, with the
  short-circuit length pre-check of Section 5.3.4 when the underlying hash is
  XASH.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..config import MateConfig
from .base import (
    MAX_MEMO_ENTRIES,
    HashFunction,
    Memo,
    create_hash_function,
    hash_each,
    key_width,
)
from .bitvector import subsumes
from .xash import XashHashFunction

try:  # numpy is an optional accelerator; only the array lanes hash in batches
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None  # type: ignore[assignment]


class SuperKeyGenerator:
    """Builds and probes super keys using a configurable hash function."""

    def __init__(self, hash_function: HashFunction):
        self.hash_function = hash_function
        self.config = hash_function.config
        self.hash_size = hash_function.hash_size
        # Cell values repeat heavily across rows and tables, so per-value hash
        # results are memoised (the reference implementation materialises them
        # in the database for the same reason).
        self._cache = Memo(hash_function.hash_value)
        #: value -> packed hash row, the memo of :meth:`hash_rows`.
        self._packed: dict[str, bytes] = {}
        self._xash = (
            hash_function if isinstance(hash_function, XashHashFunction) else None
        )

    @classmethod
    def from_name(cls, name: str, config: MateConfig) -> "SuperKeyGenerator":
        """Create a generator for the hash function registered under ``name``."""
        return cls(create_hash_function(name, config))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def value_hash(self, value: str) -> int:
        """Hash a single cell value (memoised)."""
        return self._cache[value]

    def hash_matrix(self, values: Sequence[str]) -> Any:
        """The hash of every value as a ``(len(values), key_width)``
        big-endian ``uint8`` matrix (requires numpy): the hash function's
        :meth:`~repro.hashing.base.HashFunction.hash_batch`, or its
        ``hash_value`` per value when it is a plain object without one."""
        batch = getattr(self.hash_function, "hash_batch", None)
        if batch is not None:
            return batch(values)
        return hash_each(self.hash_function.hash_value, values, self.hash_size)

    def hash_rows(self, values: Sequence[str]) -> Any:
        """:meth:`hash_matrix` through a memo of packed rows: only the values
        new to it are hashed, in one batch call.

        The ingest buffer's entry point — one generator outlives every
        buffer generation, so a value recurring across tables and seals is
        hashed once.  The memo is bounded like :class:`Memo`: when it would
        pass :data:`~repro.hashing.base.MAX_MEMO_ENTRIES` it starts over.
        """
        packed = self._packed
        width = key_width(self.hash_size)
        fresh = [value for value in values if value not in packed]
        if fresh:
            if len(packed) + len(fresh) > MAX_MEMO_ENTRIES:
                packed.clear()
                fresh = list(values)
            data = self.hash_matrix(fresh).tobytes()
            packed.update(
                zip(fresh, (data[at : at + width] for at in range(0, len(data), width)))
            )
        return _np.frombuffer(
            b"".join(map(packed.__getitem__, values)), _np.uint8
        ).reshape(len(values), width)

    def row_super_key(self, row: Iterable[str]) -> int:
        """Return the super key of a full table row."""
        cache = self._cache
        super_key = 0
        for value in row:
            super_key |= cache[value]
        return super_key

    def key_super_key(self, key_values: Sequence[str]) -> int:
        """Return the aggregated hash of a composite key value combination."""
        return self.row_super_key(key_values)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    @property
    def length_segment_shift(self) -> int | None:
        """Bit position where XASH's length segment starts (``None`` otherwise).

        The vectorized prefilter kernels replicate the short-circuit length
        pre-check of :meth:`covers_with_short_circuit` by masking the bits
        at and above this position; non-XASH hash functions have no length
        segment, so the kernels skip the pre-check exactly like the scalar
        path does.
        """
        return None if self._xash is None else self._xash.char_region_bits

    def covers(self, row_super_key: int, key_super_key: int) -> bool:
        """Return ``True`` iff the row super key masks the key super key.

        Implements line 18 of Algorithm 1:
        ``d_row.superkey OR pl_item.superkey == pl_item.superkey``.
        """
        return subsumes(row_super_key, key_super_key)

    def covers_with_short_circuit(
        self, row_super_key: int, key_super_key: int
    ) -> tuple[bool, bool]:
        """Subsumption check with the XASH length short-circuit.

        Returns ``(covered, short_circuited)``: when the underlying hash is
        XASH and already the length segment of the key is not covered, the
        check stops before touching the character region (Section 5.3.4).
        The second element reports whether that early exit fired, which the
        instrumentation counters use to explain the runtime advantage of XASH
        over BF at similar FP rates (Section 7.4).
        """
        if (xash := self._xash) is not None:
            key_length_bits = xash.length_segment(key_super_key)
            row_length_bits = xash.length_segment(row_super_key)
            if not subsumes(row_length_bits, key_length_bits):
                return False, True
        return subsumes(row_super_key, key_super_key), False


def generate_row_super_keys(
    rows: Iterable[Iterable[str]], generator: SuperKeyGenerator
) -> list[int]:
    """Return the super key of every row in ``rows`` (helper for indexing)."""
    return [generator.row_super_key(row) for row in rows]
