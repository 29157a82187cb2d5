"""Hash-function interface and registry.

Every hash function evaluated in the paper (XASH, bloom filters, hash table,
MD5, Murmur, CityHash, SimHash, and the XASH ablation variants) implements the
same tiny interface: given a cell value it returns an integer whose lowest
``hash_size`` bits are the value's contribution to the row super key.  The
super key of a row is the bitwise OR of the hashes of its cells
(Section 5.1); the same aggregation is applied to the values of a composite
query key.

A string-keyed registry makes it easy for the experiment harness to sweep all
hash functions by name (Tables 2 and 3).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Iterable, Sequence, TypeVar

import numpy as _np

from ..config import MateConfig
from ..exceptions import HashingError

V = TypeVar("V")

#: Entries a :class:`Memo` holds before it starts over (ingest and serving keep
#: theirs for the life of the process); several times the distinct values of
#: the largest benchmark corpus, so a bulk build never evicts.
MAX_MEMO_ENTRIES = 1 << 18


class Memo(dict[str, V]):
    """``key -> compute(key)``, filled on a miss, dropped wholesale when full."""

    def __init__(self, compute: Callable[[str], V]):
        super().__init__()
        self._compute = compute

    def __missing__(self, key: str) -> V:
        if len(self) >= MAX_MEMO_ENTRIES:
            self.clear()
        value = self[key] = self._compute(key)
        return value


def key_width(hash_size: int) -> int:
    """Bytes of one packed ``hash_size``-bit hash or super key."""
    return max(1, (int(hash_size) + 7) // 8)


def hash_each(
    hash_value: Callable[[str], int], values: Sequence[str], hash_size: int
) -> Any:
    """``hash_value`` of every value as a ``(len(values), key_width)``
    big-endian ``uint8`` matrix — the packed form super
    keys are stored and prefiltered in."""
    width = key_width(hash_size)
    try:
        packed = b"".join(hash_value(value).to_bytes(width, "big") for value in values)
    except OverflowError as exc:
        raise HashingError(
            f"a hash does not fit the configured {hash_size} bits: {exc}"
        ) from exc
    return _np.frombuffer(packed, _np.uint8).reshape(len(values), width)


class HashFunction(ABC):
    """A per-cell-value hash used to build super keys."""

    #: Short machine-readable identifier, e.g. ``"xash"`` or ``"bloom"``.
    name: str = "abstract"

    def __init__(self, config: MateConfig):
        self.config = config
        self.hash_size = config.hash_size

    @abstractmethod
    def hash_value(self, value: str) -> int:
        """Return the hash of a single cell value as a ``hash_size``-bit int."""

    def hash_values(self, values: Iterable[str]) -> int:
        """Return the OR-aggregation of the hashes of several values.

        This is the super-key construction of Section 5.1 applied to either a
        full table row or a composite key value combination.
        """
        aggregated = 0
        for value in values:
            aggregated |= self.hash_value(value)
        return aggregated

    def hash_batch(self, values: Sequence[str]) -> Any:
        """The hash of every value as one ``(len(values), key_width)``
        big-endian ``uint8`` matrix.

        Row ``i`` is ``hash_value(values[i])`` packed; the bulk index build
        hashes a corpus' distinct values through this entry point.  This
        generic form calls :meth:`hash_value` per value; a function whose
        features are array-friendly overrides it.
        """
        return hash_each(self.hash_value, values, self.hash_size)

    def __call__(self, value: str) -> int:
        return self.hash_value(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(hash_size={self.hash_size})"


#: Registry mapping hash-function names to factories.
_REGISTRY: dict[str, Callable[[MateConfig], HashFunction]] = {}


def register_hash_function(
    name: str,
) -> Callable[[Callable[[MateConfig], HashFunction]], Callable[[MateConfig], HashFunction]]:
    """Class decorator registering a hash function under ``name``."""

    def decorator(factory: Callable[[MateConfig], HashFunction]):
        key = name.lower()
        if key in _REGISTRY:
            raise HashingError(f"hash function {name!r} registered twice")
        _REGISTRY[key] = factory
        return factory

    return decorator


def available_hash_functions() -> list[str]:
    """Return the names of all registered hash functions, sorted."""
    return sorted(_REGISTRY)


def create_hash_function(name: str, config: MateConfig) -> HashFunction:
    """Instantiate a registered hash function by name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError as exc:
        raise HashingError(
            f"unknown hash function {name!r}; available: {available_hash_functions()}"
        ) from exc
    return factory(config)
