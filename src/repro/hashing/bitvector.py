"""Fixed-width bit-vector helpers.

Super keys and per-value hashes are represented as plain Python integers
interpreted as bit vectors of a fixed width (the configured hash size).  This
module collects the small bit-manipulation primitives the rest of the hashing
package builds on:

* masking to a width,
* circular rotation inside an arbitrary-width region (Section 5.3.5),
* population count,
* the subsumption check used by the row filter (Section 6.3): a query super
  key ``q`` is *covered* by a row super key ``r`` iff ``q OR r == r``.
"""

from __future__ import annotations

from ..exceptions import HashingError


def mask(width: int) -> int:
    """Return a bit mask with the lowest ``width`` bits set.

    >>> bin(mask(4))
    '0b1111'
    """
    if width < 0:
        raise HashingError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def popcount(value: int) -> int:
    """Return the number of set bits in ``value``.

    >>> popcount(0b1011)
    3
    """
    if value < 0:
        raise HashingError("popcount is only defined for non-negative integers")
    return value.bit_count()


def rotate_left(value: int, shift: int, width: int) -> int:
    """Circularly rotate the lowest ``width`` bits of ``value`` left by ``shift``.

    Bits that fall off the most-significant end re-enter at the
    least-significant end, exactly as described for the XASH rotation step
    (Section 5.3.5).  Bits above ``width`` must be zero.

    >>> bin(rotate_left(0b0110, 1, 4))
    '0b1100'
    >>> bin(rotate_left(0b1100, 1, 4))
    '0b1001'
    """
    if width <= 0:
        raise HashingError(f"width must be positive, got {width}")
    if value >> width:
        raise HashingError(
            f"value {value:#x} does not fit into {width} bits"
        )
    shift %= width
    if shift == 0:
        return value
    region = mask(width)
    return ((value << shift) | (value >> (width - shift))) & region


def subsumes(superset: int, subset: int) -> bool:
    """Return ``True`` iff every set bit of ``subset`` is also set in ``superset``.

    This is the row-filtering predicate of Section 6.3: a candidate row with
    super key ``superset`` may contain the query key whose super key is
    ``subset`` iff ``subset | superset == superset``.

    >>> subsumes(0b1110, 0b0110)
    True
    >>> subsumes(0b1110, 0b0001)
    False
    """
    return subset & ~superset == 0


def fold(value: int, width: int) -> int:
    """Fold an arbitrarily long integer into ``width`` bits by XOR-ing chunks.

    Used to shrink digests of standard hash functions (MD5, CityHash, ...)
    onto the configured hash size without discarding entropy.
    """
    if width <= 0:
        raise HashingError(f"width must be positive, got {width}")
    folded = 0
    region = mask(width)
    while value:
        folded ^= value & region
        value >>= width
    return folded
