"""Global configuration objects for the MATE reproduction.

The paper fixes a small number of knobs that recur throughout the system:

* the super-key / hash size ``|a|`` in bits (128 by default, 256 and 512 are
  evaluated in Tables 2 and 3),
* the number of 1-bits per XASH hash (``alpha`` in Eq. 5 of the paper),
* the alphabet used for the character segmentation (37 alphanumeric
  characters including space, Section 5.3.2),
* the number of requested results ``k`` (top-10 unless stated otherwise).

:class:`MateConfig` bundles those knobs, validates them eagerly, and derives
the XASH segmentation (``beta`` from Eq. 6 and the length-segment width) so
that every component of the system sees one consistent layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .exceptions import ConfigurationError

#: The 37-character alphabet from Section 5.3.2: digits, lowercase letters and
#: the space character.  Characters outside this alphabet are normalised (see
#: :func:`repro.hashing.xash.normalize_character`).
DEFAULT_ALPHABET: str = "0123456789abcdefghijklmnopqrstuvwxyz "

#: Hash sizes evaluated in the paper (Tables 2 and 3).
SUPPORTED_HASH_SIZES: tuple[int, ...] = (64, 128, 256, 512, 1024)

#: English letter/digit frequencies used to pick the *least frequent*
#: characters of a value (Section 5.3.2).  The exact numbers only matter
#: relatively; they follow standard English corpus frequencies, with digits and
#: space given mid-range frequencies so that rare letters still win.
CHARACTER_FREQUENCIES: dict[str, float] = {
    "e": 12.702, "t": 9.056, "a": 8.167, "o": 7.507, "i": 6.966, "n": 6.749,
    "s": 6.327, "h": 6.094, "r": 5.987, "d": 4.253, "l": 4.025, "c": 2.782,
    "u": 2.758, "m": 2.406, "w": 2.360, "f": 2.228, "g": 2.015, "y": 1.974,
    "p": 1.929, "b": 1.492, "v": 0.978, "k": 0.772, "j": 0.153, "x": 0.150,
    "q": 0.095, "z": 0.074,
    " ": 13.000,
    "0": 1.80, "1": 1.90, "2": 1.70, "3": 1.60, "4": 1.50,
    "5": 1.55, "6": 1.45, "7": 1.40, "8": 1.35, "9": 1.30,
}


def required_number_of_ones(hash_size: int, unique_values: int) -> int:
    """Return ``alpha``, the optimal number of 1-bits per hash (Eq. 5).

    ``alpha`` is the smallest number of set bits such that the number of
    possible bit combinations ``C(hash_size, alpha)`` exceeds the number of
    unique values in the corpus.  One of those bits is reserved for the length
    segment, the remaining ``alpha - 1`` encode characters.

    >>> required_number_of_ones(128, 700_000_000)
    6
    """
    if hash_size <= 0:
        raise ConfigurationError(f"hash_size must be positive, got {hash_size}")
    if unique_values <= 0:
        raise ConfigurationError(
            f"unique_values must be positive, got {unique_values}"
        )
    for alpha in range(1, hash_size + 1):
        if math.comb(hash_size, alpha) > unique_values:
            return alpha
    return hash_size


def character_segment_width(hash_size: int, alphabet_size: int) -> int:
    """Return ``beta``, the per-character segment width in bits (Eq. 6).

    ``beta`` is the largest integer such that ``alphabet_size * beta`` still
    fits strictly inside the hash array, leaving at least one bit for the
    length segment.

    >>> character_segment_width(128, 37)
    3
    >>> character_segment_width(512, 37)
    13
    """
    if hash_size <= alphabet_size:
        raise ConfigurationError(
            "hash_size must exceed the alphabet size "
            f"({hash_size} <= {alphabet_size})"
        )
    beta = (hash_size - 1) // alphabet_size
    return max(beta, 1)


@dataclass(frozen=True)
class MateConfig:
    """Configuration shared by indexing and discovery components.

    Parameters
    ----------
    hash_size:
        Width of the super key / per-value hash in bits (``|a|``).
    k:
        Number of joinable tables to return (top-``k``).
    number_of_ones:
        Number of 1-bits per XASH hash (``alpha`` in Eq. 5).  When ``None``,
        it is derived from ``expected_unique_values``.
    expected_unique_values:
        Estimated number of distinct cell values in the corpus; feeds Eq. 5.
    alphabet:
        Character alphabet used for segmentation.
    rotation:
        Whether XASH rotates character segments by the value length
        (Section 5.3.5).  Disabled only by the ablation study (Figure 5).
    encode_length / encode_location / use_rare_characters:
        Ablation switches for the Figure 5 experiment.  The default (all
        ``True``) is full XASH.
    """

    hash_size: int = 128
    k: int = 10
    number_of_ones: int | None = None
    expected_unique_values: int = 700_000_000
    alphabet: str = DEFAULT_ALPHABET
    rotation: bool = True
    encode_length: bool = True
    encode_location: bool = True
    use_rare_characters: bool = True
    #: ``V`` for the bloom-filter baselines: the average number of values
    #: aggregated per super key (i.e. columns per table).  ``None`` falls back
    #: to the paper's web-table setting of 5 (Section 7.1.2).
    bloom_values_per_row: float | None = None
    character_frequencies: dict[str, float] = field(
        default_factory=lambda: dict(CHARACTER_FREQUENCIES)
    )

    def __post_init__(self) -> None:
        if self.hash_size <= 0:
            raise ConfigurationError(
                f"hash_size must be positive, got {self.hash_size}"
            )
        if self.k <= 0:
            raise ConfigurationError(f"k must be positive, got {self.k}")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ConfigurationError("alphabet must not contain duplicates")
        if len(self.alphabet) < 2:
            raise ConfigurationError("alphabet must contain at least 2 symbols")
        if self.hash_size <= len(self.alphabet):
            raise ConfigurationError(
                "hash_size must be larger than the alphabet size "
                f"({self.hash_size} <= {len(self.alphabet)})"
            )
        if self.number_of_ones is not None and self.number_of_ones < 2:
            raise ConfigurationError(
                "number_of_ones must be at least 2 (1 length bit + 1 char bit)"
            )
        if self.expected_unique_values <= 0:
            raise ConfigurationError("expected_unique_values must be positive")

    # ------------------------------------------------------------------
    # Derived layout properties (Eq. 5 and Eq. 6)
    # ------------------------------------------------------------------
    @property
    def alphabet_size(self) -> int:
        """Number of distinct characters in the segmentation alphabet."""
        return len(self.alphabet)

    @property
    def alpha(self) -> int:
        """Total number of 1-bits per hash (Eq. 5), including the length bit."""
        if self.number_of_ones is not None:
            return self.number_of_ones
        return required_number_of_ones(self.hash_size, self.expected_unique_values)

    @property
    def characters_per_value(self) -> int:
        """Number of least-frequent characters encoded per value (alpha - 1)."""
        return max(self.alpha - 1, 1)

    @property
    def beta(self) -> int:
        """Width in bits of each character segment (Eq. 6)."""
        return character_segment_width(self.hash_size, self.alphabet_size)

    @property
    def character_region_bits(self) -> int:
        """Total number of bits occupied by the character segments."""
        return self.alphabet_size * self.beta

    @property
    def length_segment_bits(self) -> int:
        """Number of bits in the length segment (``|a_l|`` in the paper)."""
        return self.hash_size - self.character_region_bits

    def with_hash_size(self, hash_size: int) -> "MateConfig":
        """Return a copy of this configuration with a different hash size."""
        from dataclasses import replace

        return replace(self, hash_size=hash_size)

    def with_k(self, k: int) -> "MateConfig":
        """Return a copy of this configuration with a different ``k``."""
        from dataclasses import replace

        return replace(self, k=k)


@dataclass(frozen=True)
class ServiceConfig:
    """Serving knobs of a :class:`~repro.api.session.DiscoverySession`.

    These knobs do not exist in the paper — they parameterise the serving
    architecture this reproduction adds on top of Algorithm 1: how much
    concurrency the batch scheduler uses, and how many table shards the
    ``"sharded"`` engine splits the corpus into.

    Parameters
    ----------
    num_shards:
        Number of table shards of the ``"sharded"`` engine
        (:func:`~repro.core.parallel.shard_corpus`; one worker process each
        with ``execution="process"``).  The session's own index is never
        partitioned.
    max_workers:
        Worker threads the session schedules batched and submitted queries
        on.  ``1`` runs a batch serially.
    """

    num_shards: int = 1
    max_workers: int = 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive, got {self.max_workers}"
            )


#: A configuration suitable for the laptop-scale synthetic corpora used in the
#: test-suite and benchmarks: the Eq. 5 budget is computed against a much
#: smaller number of unique values, which yields alpha = 3 (2 character bits +
#: 1 length bit: ``comb(128, 3) = 341,376 > 300,000``), one below the worked
#: example of Section 5.3.1.  Every test hash depends on it; do not change it.
DEFAULT_CONFIG = MateConfig(expected_unique_values=300_000)
