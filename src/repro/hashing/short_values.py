"""Short-value-aware XASH variant (the Section 9 future-work direction).

The paper's conclusion notes that "Xash cannot use its optimal potential if
cell values are too short": a value with fewer distinct characters than the
per-value bit budget (``alpha - 1``) sets fewer 1-bits, so its hash carries
less evidence and short key values (country codes, single digits, two-letter
abbreviations) collide more often under OR-aggregation.

:class:`ShortValueXashHashFunction` ("``xash_short``" in the registry) keeps
the standard XASH behaviour for values that already exhaust the character
budget and spends the *unused* budget of short values on character bigrams:

* the distinct characters of the value are encoded exactly as in XASH;
* if fewer than ``alpha - 1`` characters were encoded, adjacent character
  pairs (bigrams) are mapped onto alphabet segments via a deterministic fold
  and encoded with the same position rule until the budget is used up.

The variant never sets more bits than plain XASH is allowed to (the Eq. 5
budget still bounds the number of 1-bits), it is deterministic, and the
no-false-negative argument is untouched because the row and the query value
are hashed by the same function.  The ``short_values`` experiment measures
what the extra evidence buys on a workload keyed by short codes.
"""

from __future__ import annotations

from .base import register_hash_function
from .xash import XashHashFunction


def bigram_bucket(bigram: str, alphabet: str) -> str:
    """Deterministically fold a character bigram onto one alphabet segment.

    The fold must be stable across processes (no built-in ``hash``): it mixes
    the two code points with distinct multipliers so that "ab" and "ba" land
    in different buckets.

    >>> bigram_bucket("ab", "abc") != bigram_bucket("ba", "abc")
    True
    """
    if len(bigram) != 2:
        raise ValueError(f"expected a 2-character bigram, got {bigram!r}")
    mixed = ord(bigram[0]) * 31 + ord(bigram[1]) * 131
    return alphabet[mixed % len(alphabet)]


@register_hash_function("xash_short")
class ShortValueXashHashFunction(XashHashFunction):
    """XASH plus bigram evidence for values shorter than the bit budget."""

    name = "xash_short"

    def _encode_characters(self, value: str) -> int:
        """XASH's character bits; a short value spends the unused budget on bigrams."""
        character_region = super()._encode_characters(value)
        # Every encoded character owns a segment, hence exactly one bit so far.
        remaining_budget = self.characters_per_value - character_region.bit_count()
        if remaining_budget > 0 and len(value) >= 2:
            character_region |= self._bigram_bits(
                self.normalized_characters(value), remaining_budget
            )
        return character_region

    # ------------------------------------------------------------------
    # Bigram evidence for short values
    # ------------------------------------------------------------------
    def _bigram_bits(self, characters: list[str], budget: int) -> int:
        """Encode up to ``budget`` adjacent bigrams of a short value."""
        bits = 0
        used = 0
        length = len(characters)
        for position in range(length - 1):
            if used >= budget:
                break
            bigram = characters[position] + characters[position + 1]
            bucket = bigram_bucket(bigram, self.alphabet)
            bit = self._segment_of[bucket] * self.beta
            if self._encode_location:
                # Position of the bigram's first character, same rule as for
                # single characters (Section 5.3.3).
                bit += self._location_bit(position + 1, 1, length)
            if bits >> bit & 1:
                continue  # this bigram bucket/offset is already used
            bits |= 1 << bit
            used += 1
        return bits

    def is_short_value(self, value: str) -> bool:
        """Whether ``value`` leaves part of the character budget unused."""
        characters = self.normalized_characters(value)
        return len(set(characters)) < self.characters_per_value
