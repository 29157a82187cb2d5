"""XASH: the syntactic hash function at the core of MATE (Section 5.2/5.3).

XASH encodes three syntactic features of a cell value into a fixed-size bit
vector with a strictly bounded number of 1-bits:

1. **Least-frequent characters** (Section 5.3.2).  The ``alpha - 1`` rarest
   characters of the value (by a global character-frequency table, ties broken
   lexicographically) each set exactly one bit inside the segment dedicated to
   that character.
2. **Character location** (Section 5.3.3).  Each character segment is
   ``beta`` bits wide; the bit chosen inside the segment encodes in which of
   ``beta`` equal-width regions of the value the character (on average)
   occurs: ``x = ceil(lambda * beta / l_v)`` with ``lambda`` the 1-based
   average position and ``l_v`` the value length.
3. **Value length** (Section 5.3.4).  One bit in a dedicated length segment,
   at index ``l_v mod |a_l|``.

Finally the character region is **rotated** left by the value length
(Section 5.3.5) so that two values can only collide if they agree on both the
rare characters *and* the length.

Bit layout used here (least significant bit = index 0)::

    [ character segments : alphabet_size * beta bits ][ length segment ]
      bits 0 .. char_region_bits-1                      high-order bits

The paper describes the length segment as the *left-most* (most significant)
segment, which is exactly where it lives in this layout; the row filter
exploits that for its short-circuit length pre-check.
"""

from __future__ import annotations

from functools import partial
from math import ceil
from typing import Any, Iterable, Sequence

from ..config import MateConfig
from ..exceptions import HashingError
from .base import HashFunction, Memo, _np, key_width, register_hash_function
from .bitvector import rotate_left

#: Values :meth:`XashHashFunction.hash_batch` hashes per array pass.  The
#: per-pass work arrays are ``values x alphabet`` wide (37 columns by
#: default): 4,096 values keep them at a few MB whatever the corpus size.
BATCH_VALUES = 4096


def normalize_character(character: str, alphabet: str) -> str:
    """Map an arbitrary character onto the segmentation alphabet.

    Characters already in the alphabet are returned unchanged (after
    lowercasing).  Any other character (punctuation, accented letters,
    CJK, ...) is mapped deterministically onto an alphabet bucket via its
    code point so that every value, regardless of script, receives a hash.
    """
    if len(character) != 1:
        raise HashingError(f"expected a single character, got {character!r}")
    lowered = character.lower()
    if len(lowered) != 1:  # U+0130 lower-cases to two code points
        lowered = character
    if lowered in alphabet:
        return lowered
    return alphabet[ord(lowered) % len(alphabet)]


@register_hash_function("xash")
class XashHashFunction(HashFunction):
    """The XASH hash function (full feature set by default).

    The ablation switches on :class:`~repro.config.MateConfig`
    (``use_rare_characters``, ``encode_location``, ``encode_length``,
    ``rotation``) turn individual features off; they exist to reproduce the
    component study of Figure 5 and default to the full XASH behaviour.

    Super keys are persisted and compared against freshly hashed query keys,
    so a hash may never change a bit (``tests/data/xash_golden.json``).
    """

    name = "xash"

    def __init__(self, config: MateConfig):
        super().__init__(config)
        self.alphabet = config.alphabet
        self.beta = config.beta
        self.char_region_bits = config.character_region_bits
        self.length_segment_bits = config.length_segment_bits
        self.characters_per_value = config.characters_per_value
        self._segment_of = {c: i for i, c in enumerate(self.alphabet)}
        self._symbol_of = Memo(partial(normalize_character, alphabet=self.alphabet))
        frequencies = config.character_frequencies
        default_frequency = max(frequencies.values(), default=1.0) + 1.0
        rarest_first = sorted(
            self.alphabet, key=lambda c: (frequencies.get(c, default_frequency), c)
        )
        self._rank_of = {c: rank for rank, c in enumerate(rarest_first)}
        self._encode_location = config.encode_location and self.beta > 1

    # ------------------------------------------------------------------
    # Feature extraction
    # ------------------------------------------------------------------
    def normalized_characters(self, value: str) -> list[str]:
        """Return the value's characters mapped onto the alphabet."""
        return list(map(self._symbol_of.__getitem__, value))

    def select_characters(self, characters: Iterable[str]) -> list[str]:
        """Select the ``alpha - 1`` characters to encode (Section 5.3.2).

        With ``use_rare_characters`` enabled (the default) the distinct
        characters are ranked by global frequency (rarest first), ties broken
        lexicographically; otherwise the first distinct characters in order of
        appearance are used (ablation baseline).
        """
        return self._select(dict.fromkeys(characters))

    def _select(self, distinct: Iterable[str]) -> list[str]:
        """:meth:`select_characters` of distinct symbols in first-seen order."""
        if self.config.use_rare_characters:
            ranked = sorted(distinct, key=self._rank_of.__getitem__)
        else:
            ranked = list(distinct)
        return ranked[: self.characters_per_value]

    def character_location_bit(self, character: str, characters: list[str]) -> int:
        """Return the 0-based bit offset inside the character's segment.

        Implements ``x = ceil(lambda * beta / l_v)`` from Section 5.3.3 where
        ``lambda`` is the average (1-based) position of the character.  When
        location encoding is disabled the first bit of the segment is used.
        """
        if not self._encode_location:
            return 0
        positions = [i for i, c in enumerate(characters, 1) if c == character]
        if not positions:
            raise HashingError(
                f"character {character!r} not present in value {characters!r}"
            )
        return self._location_bit(sum(positions), len(positions), len(characters))

    def _location_bit(self, total: int, count: int, length: int) -> int:
        """Segment offset of ``count`` positions in ``1..length`` summing to ``total``.
        These float operations, in this order, are part of the stored format; no
        clamp is needed (rounding is monotonic: the quotient stays in ``(0, beta]``)."""
        return ceil(total / count * self.beta / length) - 1

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _encode_characters(self, value: str) -> int:
        """The unrotated character region: one bit per selected symbol, from one
        pass over ``value`` keeping a position sum and a count per symbol."""
        totals: dict[str, int] = {}
        counts: dict[str, int] = {}
        for position, symbol in enumerate(map(self._symbol_of.__getitem__, value), 1):
            if symbol in totals:
                totals[symbol] += position
                counts[symbol] += 1
            else:
                totals[symbol] = position
                counts[symbol] = 1
        length = len(value)
        character_region = 0
        # ``totals`` iterates in first-seen order, which the ablation selects by.
        for symbol in self._select(totals):
            bit = self._segment_of[symbol] * self.beta
            if self._encode_location:
                bit += self._location_bit(totals[symbol], counts[symbol], length)
            character_region |= 1 << bit
        return character_region

    def hash_value(self, value: str) -> int:
        """Hash a single cell value into a ``hash_size``-bit integer."""
        if value == "":
            return 0
        length = len(value)
        result = self._encode_characters(value)
        if self.config.rotation and result:
            result = rotate_left(result, length, self.char_region_bits)
        if self.config.encode_length and self.length_segment_bits > 0:
            result |= 1 << (self.char_region_bits + length % self.length_segment_bits)
        return result

    def hash_batch(self, values: Sequence[str]) -> Any:
        """:meth:`hash_value` of every value, as array passes over the
        concatenated code points (see :meth:`HashFunction.hash_batch`).

        Bit-identical to the scalar path by construction: a code point
        reaches its segment through the scalar :func:`normalize_character`,
        and the location bit is computed by the same float64 operations in
        the same order as :meth:`_location_bit`.  A subclass that redefines
        the scalar hash keeps the generic per-value batch.
        """
        scalar = (type(self).hash_value, type(self)._encode_characters)
        if scalar != (XashHashFunction.hash_value, XashHashFunction._encode_characters):
            return super().hash_batch(values)
        out = _np.zeros((len(values), key_width(self.hash_size)), dtype=_np.uint8)
        for start in range(0, len(values), BATCH_VALUES):
            stop = start + BATCH_VALUES
            self._hash_into(values[start:stop], out[start:stop])
        return out

    def _hash_into(self, values: Sequence[str], out: Any) -> None:
        """OR the hash bits of ``values`` into the zeroed rows of ``out``."""
        count = len(values)
        lengths = _np.fromiter(map(len, values), _np.int64, count)
        codes = _np.frombuffer(
            "".join(values).encode("utf-32-le", "surrogatepass"), _np.uint32
        )
        if not len(codes):
            return
        # Code point -> symbol, through the scalar normaliser once per
        # distinct code point.  A symbol is numbered by its rank (rarest
        # first), so ascending symbol order is selection order.
        seen = _np.flatnonzero(_np.bincount(codes))
        symbol_of = _np.zeros(int(seen[-1]) + 1, dtype=_np.int64)
        symbol_of[seen] = [
            self._rank_of[self._symbol_of[chr(code)]] for code in seen.tolist()
        ]
        owners = _np.repeat(_np.arange(count), lengths)
        positions = _np.arange(1, len(codes) + 1) - (_np.cumsum(lengths) - lengths)[owners]
        # One cell per (value, symbol): how often and where the symbol occurs.
        size = len(self.alphabet)
        cells = owners * size + symbol_of[codes]
        counts = _np.bincount(cells, minlength=count * size)
        pairs = _np.flatnonzero(counts)
        rows = pairs // size
        if not self.config.use_rare_characters:
            # Selection order is order of appearance instead (``unique``
            # lists the same sorted cells as ``pairs``; ``rows`` is the
            # primary sort key, so it stays aligned).
            _cells, first = _np.unique(cells, return_index=True)
            pairs = pairs[_np.lexsort((first, rows))]
        # Keep each value's first ``characters_per_value`` pairs.
        ordinal = _np.arange(len(pairs)) - _np.searchsorted(rows, _np.arange(count))[rows]
        chosen = ordinal < self.characters_per_value
        pairs, rows = pairs[chosen], rows[chosen]
        segment_by_rank = _np.array(
            [self._segment_of[symbol] for symbol in self._rank_of], dtype=_np.int64
        )
        bits = segment_by_rank[pairs % size] * self.beta
        if self._encode_location:
            totals = _np.bincount(cells, weights=positions, minlength=count * size)
            # _location_bit's operations, in its order, on float64.
            located = totals[pairs] / counts[pairs] * self.beta / lengths[rows]
            bits += _np.ceil(located).astype(_np.int64) - 1
        if self.config.rotation:
            bits = (bits + lengths[rows]) % self.char_region_bits
        if self.config.encode_length and self.length_segment_bits > 0:
            hashed = _np.flatnonzero(lengths)
            rows = _np.concatenate((rows, hashed))
            bits = _np.concatenate(
                (bits, self.char_region_bits + lengths[hashed] % self.length_segment_bits)
            )
        _np.bitwise_or.at(
            out,
            (rows, out.shape[1] - 1 - (bits >> 3)),
            (1 << (bits & 7)).astype(_np.uint8),
        )

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the row filter)
    # ------------------------------------------------------------------
    def length_segment(self, hashed: int) -> int:
        """Extract the length-segment bits of a hash or super key."""
        return hashed >> self.char_region_bits

    def character_region(self, hashed: int) -> int:
        """Extract the character-region bits of a hash or super key."""
        return hashed & ((1 << self.char_region_bits) - 1)
