"""Deterministic per-column MinHash signatures.

A :class:`ColumnSketch` summarises one corpus column as ``num_perm``
minimum hash values under seeded universal permutations
``h_i(x) = (a_i * x + b_i) mod p`` with ``p = 2^61 - 1``.  The base value
hash is :func:`hashlib.blake2b` truncated to 32 bits — *not* the builtin
``hash`` — so signatures are identical across processes and interpreter
runs regardless of ``PYTHONHASHSEED``, which the persisted sketch files and
the process-pool workers rely on.

The permutation parameters are drawn from ``random.Random(seed)`` over the
full ``[1, p)`` range and the product is deliberately evaluated *modulo
2^64 first*: ``((a * h + b) mod 2^64) mod p``.  That is exactly what a
broadcasted numpy ``uint64`` pass computes natively (overflow wraps), so a
signature is one vectorised multiply-add-mod over every permutation ×
value hash.  The wrap-around also supplies the high-order mixing that keeps
the MinHash estimator unbiased with 32-bit value hashes.

**The reduction mod p** needs no division: with ``x = hi * 2^61 + lo`` and
``2^61 ≡ 1 (mod p)``, ``x ≡ hi + lo = (x >> 61) + (x & p)``, which is at
most ``p + 7``, so one conditional subtract of ``p`` finishes it — bit for
bit ``x % p`` for every ``uint64``.

**Signing by id.**  Ingest and the bulk builds do not re-read cell strings:
the dictionary pass they already run (:func:`repro.index.bulk.encode_tables`)
gives every cell a vocabulary id, one sort of ``(column, value id)`` codes
yields each column's distinct ids, every vocabulary value is hashed once,
and :func:`sign_columns` permutes the hashes of all columns of a batch in
slices of :data:`_BROADCAST_VALUES`, each reduced per column by one
``minimum.reduceat``.  A query's value set is signed from its strings
(:func:`minhash_signature`) and scored against stored signatures in one
comparison (:func:`containment_estimates`).
"""

from __future__ import annotations

import hashlib
from array import array
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as _np

#: Mersenne prime modulus of the universal permutations.
MERSENNE_PRIME = (1 << 61) - 1

#: Sentinel "empty" signature entry (larger than any permuted hash).
EMPTY_SLOT = MERSENNE_PRIME


def hash_value(value: str) -> int:
    """Stable 32-bit base hash of one cell value (process independent).

    Total over ``str``: a lone surrogate (which XASH, the WAL and ``.seg``
    files accept) is encoded as its three surrogate bytes; every string
    with a UTF-8 form hashes its UTF-8 bytes.
    """
    digest = hashlib.blake2b(
        value.encode("utf-8", "surrogatepass"), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little")


def permutation_params(num_perm: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The seeded ``(a_i, b_i)`` coefficient vectors of the permutations."""
    import random

    if num_perm <= 0:
        raise ValueError(f"num_perm must be positive, got {num_perm}")
    rng = random.Random(seed)
    a = tuple(rng.randrange(1, MERSENNE_PRIME) for _ in range(num_perm))
    b = tuple(rng.randrange(0, MERSENNE_PRIME) for _ in range(num_perm))
    return a, b


@lru_cache(maxsize=8)
def _coefficient_columns(a: tuple[int, ...], b: tuple[int, ...]):
    """The permutation coefficients as ``(num_perm, 1)`` ``uint64`` columns."""
    columns = (
        _np.asarray(a, dtype=_np.uint64)[:, None],
        _np.asarray(b, dtype=_np.uint64)[:, None],
    )
    for column in columns:  # shared by every caller
        column.flags.writeable = False
    return columns


def _permuted(hashes, a: Sequence[int], b: Sequence[int]):
    """Every permutation of every value hash: ``(num_perm, len(hashes))``."""
    a_column, b_column = _coefficient_columns(tuple(a), tuple(b))
    prime = _np.uint64(MERSENNE_PRIME)
    # uint64 arithmetic wraps mod 2^64 by construction.
    permuted = _np.multiply(a_column, hashes[None, :])
    _np.add(permuted, b_column, out=permuted)
    # ``% p`` without a division (see the module docstring).
    low = _np.bitwise_and(permuted, prime)
    _np.right_shift(permuted, _np.uint64(61), out=permuted)
    _np.add(permuted, low, out=permuted)
    # ``x - p`` wraps above ``x`` exactly when ``x < p``.
    _np.subtract(permuted, prime, out=low)
    return _np.minimum(permuted, low, out=permuted)


def minhash_signature(
    values: Iterable[str], a: Sequence[int], b: Sequence[int]
) -> tuple[int, ...]:
    """The MinHash signature of a value set under the given permutations.

    An empty value set yields the all-:data:`EMPTY_SLOT` signature, which
    estimates zero similarity against every non-empty signature.
    """
    hashes = sorted({hash_value(value) for value in values})
    if not hashes:
        return tuple([EMPTY_SLOT] * len(a))
    permuted = _permuted(_np.asarray(hashes, dtype=_np.uint64), a, b)
    return tuple(permuted.min(axis=1).tolist())


def pack_signature(signature: Sequence[int]) -> bytes:
    """A signature as ``8 * num_perm`` bytes (native-order ``uint64``): the
    form sketches are stored, persisted and bucketed in."""
    return array("Q", signature).tobytes()


#: Value hashes one broadcast of :func:`sign_columns` permutes at most
#: (``num_perm`` times eight bytes each: 1 MiB at 128 permutations, small
#: enough to stay in cache).
_BROADCAST_VALUES = 1 << 10


def sign_columns(hashes, starts, a: Sequence[int], b: Sequence[int]):
    """The signatures of many columns at once, ``(len(starts), num_perm)``
    ``uint64``: row ``i`` equals ``minhash_signature`` of column ``i``.

    ``hashes`` holds the base hash of each distinct value of each column,
    column after column, and ``starts`` where each column's run begins
    (strictly ascending from 0; every column holds a value).  The hashes are
    permuted in slices of :data:`_BROADCAST_VALUES` — a slice may cut a
    column, whose minimum then folds over the slices holding it.
    """
    signatures = _np.full((len(a), len(starts)), EMPTY_SLOT, dtype=_np.uint64)
    for begin in range(0, len(hashes), _BROADCAST_VALUES):
        end = min(begin + _BROADCAST_VALUES, len(hashes))
        # The column holding ``begin`` and every column starting before ``end``.
        first = int(_np.searchsorted(starts, begin, "right")) - 1
        last = int(_np.searchsorted(starts, end, "left"))
        local = starts[first:last] - begin
        local[0] = 0
        minimums = _np.minimum.reduceat(
            _permuted(hashes[begin:end], a, b), local, axis=1
        )
        _np.minimum(signatures[:, first:last], minimums, out=signatures[:, first:last])
    return _np.ascontiguousarray(signatures.T)


def jaccard_estimate(first: Sequence[int], second: Sequence[int]) -> float:
    """The MinHash Jaccard estimate: the fraction of agreeing slots."""
    if len(first) != len(second):
        raise ValueError(
            f"signature lengths differ: {len(first)} vs {len(second)}"
        )
    if not first:
        return 0.0
    agreeing = sum(
        1
        for left, right in zip(first, second)
        if left == right and left != EMPTY_SLOT
    )
    return agreeing / len(first)


def containment_estimate(
    jaccard: float, query_cardinality: int, target_cardinality: int
) -> float:
    """Estimated containment of the query value set in the target column.

    From the inclusion-exclusion identity ``|Q ∩ T| = j / (1 + j) * (|Q| +
    |T|)`` the containment ``|Q ∩ T| / |Q|`` follows directly; the estimate
    is clamped to ``[0, 1]`` to absorb MinHash noise.
    """
    if query_cardinality <= 0 or jaccard <= 0.0:
        return 0.0
    intersection = jaccard / (1.0 + jaccard) * (
        query_cardinality + target_cardinality
    )
    return max(0.0, min(1.0, intersection / query_cardinality))


def containment_estimates(
    stored, signature: Sequence[int], query_cardinality: int, cardinalities
):
    """:func:`containment_estimate` of :func:`jaccard_estimate` for many
    stored signatures (``(n, num_perm)`` ``uint64``, of columns with the
    given ``cardinalities``) against one query signature, in one comparison.

    The same IEEE operations in the same order as the scalar pair, so every
    score equals it bit for bit.
    """
    if query_cardinality <= 0:
        return _np.zeros(len(stored))
    query = _np.asarray(signature, dtype=_np.uint64)
    agreeing = _np.count_nonzero((stored == query) & (query != EMPTY_SLOT), axis=1)
    jaccard = agreeing / len(query)
    # A zero Jaccard estimate scores 0.0 here as well, with no special case.
    intersection = jaccard / (1.0 + jaccard) * (query_cardinality + cardinalities)
    return _np.maximum(0.0, _np.minimum(1.0, intersection / query_cardinality))


class ColumnSketch:
    """The MinHash summary of one corpus column.

    Held packed (:func:`pack_signature`): ingest, persistence, the LSH
    buckets and the scoring of a query only ever move the bytes.
    """

    __slots__ = ("table_id", "column_index", "cardinality", "packed")

    def __init__(
        self,
        table_id: int,
        column_index: int,
        cardinality: int,
        signature: Sequence[int] | bytes,
    ):
        #: Table the column belongs to.
        self.table_id = table_id
        #: Zero-based column position within the table.
        self.column_index = column_index
        #: Number of distinct (non-missing) values the column held.
        self.cardinality = cardinality
        #: The packed MinHash signature.
        self.packed = (
            signature if isinstance(signature, bytes) else pack_signature(signature)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnSketch(table_id={self.table_id}, "
            f"column_index={self.column_index}, "
            f"cardinality={self.cardinality})"
        )
