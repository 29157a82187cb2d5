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
broadcasted numpy ``uint64`` pass computes natively (overflow wraps), so
the fast path is one vectorised multiply-add-mod over every permutation ×
value hash, and the pure-stdlib fallback reproduces it bit for bit with a
``& (2^64 - 1)`` mask.  The wrap-around also supplies the high-order
mixing that keeps the MinHash estimator unbiased with 32-bit value
hashes.

Path selection mirrors the prefilter kernels (:mod:`repro.index.kernels`):
the ``MATE_SKETCH`` environment variable (``auto``, ``numpy``,
``fallback``) sets the process default, and :func:`set_sketch_kernel` /
:func:`use_sketch_kernel` override it for tests.  ``auto`` and ``numpy``
degrade to the fallback when numpy is not installed.
"""

from __future__ import annotations

import hashlib
import os
from array import array
from contextlib import contextmanager
from functools import lru_cache
from typing import Collection, Iterable, Iterator, Mapping, Sequence

try:  # numpy is an optional accelerator (the ``accel`` extra), never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None

#: Recognised sketch-kernel selections.
SKETCH_CHOICES: tuple[str, ...] = ("auto", "numpy", "fallback")

#: Environment variable holding the process-wide default selection.
SKETCH_ENV_VAR = "MATE_SKETCH"

#: Mersenne prime modulus of the universal permutations.
MERSENNE_PRIME = (1 << 61) - 1

#: Mask emulating numpy's native ``uint64`` wrap-around in the fallback.
_MASK_64 = (1 << 64) - 1

#: Sentinel "empty" signature entry (larger than any permuted hash).
EMPTY_SLOT = MERSENNE_PRIME

_choice = os.environ.get(SKETCH_ENV_VAR, "auto")
if _choice not in SKETCH_CHOICES:
    _choice = "auto"


def sketch_numpy_available() -> bool:
    """Whether the numpy signature path can run in this process."""
    return _np is not None


def sketch_kernel_choice() -> str:
    """The current (unresolved) sketch-kernel selection."""
    return _choice


def active_sketch_kernel() -> str:
    """The path that would execute now: ``"numpy"`` or ``"fallback"``."""
    if _choice == "fallback":
        return "fallback"
    return "numpy" if _np is not None else "fallback"


def set_sketch_kernel(choice: str) -> None:
    """Set the process-wide sketch-kernel selection."""
    global _choice
    if choice not in SKETCH_CHOICES:
        raise ValueError(
            f"unknown sketch kernel {choice!r}; expected one of {SKETCH_CHOICES}"
        )
    _choice = choice


@contextmanager
def use_sketch_kernel(choice: str) -> Iterator[None]:
    """Temporarily force a sketch-kernel selection (test helper)."""
    previous = _choice
    set_sketch_kernel(choice)
    try:
        yield
    finally:
        set_sketch_kernel(previous)


def hash_value(value: str) -> int:
    """Stable 32-bit base hash of one cell value (process independent)."""
    digest = hashlib.blake2b(value.encode("utf-8"), digest_size=4).digest()
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


def _signature_fallback(
    hashes: Sequence[int], a: Sequence[int], b: Sequence[int]
) -> tuple[int, ...]:
    signature = [EMPTY_SLOT] * len(a)
    for value_hash in hashes:
        for position, (a_i, b_i) in enumerate(zip(a, b)):
            permuted = ((a_i * value_hash + b_i) & _MASK_64) % MERSENNE_PRIME
            if permuted < signature[position]:
                signature[position] = permuted
    return tuple(signature)


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
    # uint64 arithmetic wraps mod 2^64 by construction — the same value the
    # fallback computes with its explicit mask.
    with _np.errstate(over="ignore"):
        return (a_column * hashes[None, :] + b_column) % _np.uint64(MERSENNE_PRIME)


def _signature_numpy(
    hashes: Sequence[int], a: Sequence[int], b: Sequence[int]
) -> tuple[int, ...]:
    permuted = _permuted(_np.asarray(hashes, dtype=_np.uint64), a, b)
    return tuple(permuted.min(axis=1).tolist())


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
    if active_sketch_kernel() == "numpy":
        return _signature_numpy(hashes, a, b)
    return _signature_fallback(hashes, a, b)


def pack_signature(signature: Sequence[int]) -> bytes:
    """A signature as ``8 * num_perm`` bytes (native-order ``uint64``): the
    form sketches are stored, persisted and bucketed in."""
    return array("Q", signature).tobytes()


def unpack_signature(packed: bytes) -> tuple[int, ...]:
    """The signature :func:`pack_signature` packed."""
    signature = array("Q")
    signature.frombytes(packed)
    return tuple(signature)


#: Value hashes one broadcast of :func:`column_signatures` permutes at most
#: (``num_perm`` times eight bytes each: 32 MiB at 128 permutations).
_BROADCAST_VALUES = 1 << 15


def column_signatures(
    columns: Sequence[Collection[str]],
    a: Sequence[int],
    b: Sequence[int],
    hash_of: Mapping[str, int] | None = None,
) -> list[bytes]:
    """The packed signature of each of several non-empty value sets — the
    columns of one table — equal to ``pack_signature(minhash_signature(...))``
    column by column.

    With numpy every distinct value is hashed once — through ``hash_of``, a
    ``value -> hash_value(value)`` memo the caller keeps across tables, when
    given — the hash sets of all columns are permuted in one ``(num_perm,
    values)`` broadcast (in slices of :data:`_BROADCAST_VALUES`) and reduced
    per column by ``minimum.reduceat``; the fallback signs column by column.
    """
    if active_sketch_kernel() != "numpy":
        return [pack_signature(minhash_signature(values, a, b)) for values in columns]
    if hash_of is None:
        hash_of = {value: hash_value(value) for value in set().union(*columns)}
    signatures: list[bytes] = []
    first = 0
    while first < len(columns):
        # Whole columns up to the bound; one oversize column goes alone.
        last, total = first, 0
        while last < len(columns) and (
            last == first or total + len(columns[last]) <= _BROADCAST_VALUES
        ):
            total += len(columns[last])
            last += 1
        sizes = [len(values) for values in columns[first:last]]
        hashes = _np.fromiter(
            (hash_of[value] for values in columns[first:last] for value in values),
            _np.uint64,
            total,
        )
        starts = _np.cumsum([0] + sizes[:-1])
        minimums = _np.minimum.reduceat(_permuted(hashes, a, b), starts, axis=1)
        packed = _np.ascontiguousarray(minimums.T).tobytes()
        width = 8 * len(a)
        signatures.extend(
            packed[at : at + width] for at in range(0, len(packed), width)
        )
        first = last
    return signatures


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


class ColumnSketch:
    """The MinHash summary of one corpus column.

    Held packed (:func:`pack_signature`): ingest, persistence and the LSH
    buckets only ever move the bytes; :attr:`signature` unpacks them the
    first time a query scores the column.
    """

    __slots__ = ("table_id", "column_index", "cardinality", "packed", "_signature")

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
        self._signature: tuple[int, ...] | None = None

    @property
    def signature(self) -> tuple[int, ...]:
        """The MinHash signature (``num_perm`` permuted minimums)."""
        if self._signature is None:
            self._signature = unpack_signature(self.packed)
        return self._signature

    def jaccard(self, signature: Sequence[int]) -> float:
        """Jaccard estimate against a query signature."""
        return jaccard_estimate(self.signature, signature)

    def containment_of(
        self, signature: Sequence[int], query_cardinality: int
    ) -> float:
        """Estimated containment of the query values in this column."""
        return containment_estimate(
            self.jaccard(signature), query_cardinality, self.cardinality
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnSketch(table_id={self.table_id}, "
            f"column_index={self.column_index}, "
            f"cardinality={self.cardinality})"
        )
