"""Tests for repro.hashing.bitvector."""

import pytest

from repro.exceptions import HashingError
from repro.hashing import fold, mask, popcount, rotate_left, subsumes


class TestBasics:
    def test_mask(self):
        assert mask(0) == 0
        assert mask(4) == 0b1111
        with pytest.raises(HashingError):
            mask(-1)

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(0b1011) == 3
        with pytest.raises(HashingError):
            popcount(-1)

class TestRotation:
    def test_paper_example(self):
        # Section 5.3.5: "a 3-bit rotation of '01100101' equals '00101011'".
        value = int("01100101", 2)
        rotated = rotate_left(value, 3, 8)
        assert format(rotated, "08b") == "00101011"

    def test_rotation_preserves_popcount(self):
        value = 0b1011001
        for shift in range(20):
            assert popcount(rotate_left(value, shift, 7)) == popcount(value)

    def test_full_rotation_is_identity(self):
        value = 0b1010101
        assert rotate_left(value, 7, 7) == value
        assert rotate_left(value, 0, 7) == value

    def test_rotating_by_the_complement_is_identity(self):
        value = 0b110010
        assert rotate_left(rotate_left(value, 4, 6), 2, 6) == value

    def test_rejects_value_wider_than_width(self):
        with pytest.raises(HashingError):
            rotate_left(0b10000, 1, 4)
        with pytest.raises(HashingError):
            rotate_left(1, 1, 0)


class TestSubsumption:
    def test_subset_is_subsumed(self):
        assert subsumes(0b1110, 0b0110)
        assert subsumes(0b1110, 0)
        assert subsumes(0b1110, 0b1110)

    def test_non_subset_is_not_subsumed(self):
        assert not subsumes(0b1110, 0b0001)
        assert not subsumes(0, 0b1)


class TestFold:
    def test_fold_small_value_unchanged(self):
        assert fold(0b1010, 8) == 0b1010

    def test_fold_xors_chunks(self):
        # 0xAB00CD folded to 8 bits: 0xCD ^ 0x00 ^ 0xAB
        assert fold(0xAB00CD, 8) == 0xCD ^ 0x00 ^ 0xAB

    def test_fold_rejects_bad_width(self):
        with pytest.raises(HashingError):
            fold(1, 0)
