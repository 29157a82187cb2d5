"""Tests for repro.hashing.xash: bit layout, features, and rotation."""

import pytest

from repro.config import MateConfig
from repro.exceptions import HashingError
from repro.hashing import XashHashFunction, normalize_character, popcount
from repro.hashing.base import create_hash_function


@pytest.fixture()
def xash(config) -> XashHashFunction:
    return XashHashFunction(config)


class TestNormalizeCharacter:
    def test_alphabet_characters_pass_through(self, config):
        assert normalize_character("a", config.alphabet) == "a"
        assert normalize_character("Z", config.alphabet) == "z"
        assert normalize_character("7", config.alphabet) == "7"
        assert normalize_character(" ", config.alphabet) == " "

    def test_out_of_alphabet_characters_map_deterministically(self, config):
        first = normalize_character("é", config.alphabet)
        second = normalize_character("é", config.alphabet)
        assert first == second
        assert first in config.alphabet

    def test_lowercase_of_two_code_points_buckets_the_original(self, config, xash):
        # "İ" (U+0130) lower-cases to "i" + a combining dot; ord() of that raised.
        bucket = config.alphabet[0x130 % len(config.alphabet)]
        assert normalize_character("İ", config.alphabet) == bucket
        assert xash.hash_value("İstanbul") == xash.hash_value(bucket + "stanbul")

    def test_rejects_multi_character_input(self, config):
        with pytest.raises(HashingError):
            normalize_character("ab", config.alphabet)


class TestBitBudget:
    def test_empty_value_hashes_to_zero(self, xash):
        assert xash.hash_value("") == 0

    def test_hash_fits_hash_size(self, xash):
        for value in ("muhammad", "us", "1999-12-31", "a b c", "x" * 100):
            assert xash.hash_value(value) < (1 << xash.hash_size)

    def test_at_most_alpha_bits_set(self, xash, config):
        for value in ("muhammad", "lee", "us", "photographer", "germany"):
            assert popcount(xash.hash_value(value)) <= config.alpha

    def test_short_values_use_fewer_bits(self, xash):
        # "us" has only 2 distinct characters -> 2 char bits + 1 length bit.
        assert popcount(xash.hash_value("us")) == 3

    def test_exactly_one_length_bit(self, xash):
        for value in ("muhammad", "lee", "us", "germany"):
            length_bits = xash.length_segment(xash.hash_value(value))
            assert popcount(length_bits) == 1

    def test_length_bit_position(self, xash, config):
        hashed = xash.hash_value("muhammad")  # length 8
        length_bits = xash.length_segment(hashed)
        assert length_bits == 1 << (8 % config.length_segment_bits)

    def test_deterministic(self, xash):
        assert xash.hash_value("dresden") == xash.hash_value("dresden")


class TestFeatureSensitivity:
    def test_different_lengths_give_different_length_bits(self, xash):
        # Section 5.3.4: "Boxer" vs "Birder" share the rare character "b" but
        # differ in length, so their hashes must differ.
        assert xash.hash_value("boxer") != xash.hash_value("birder")
        assert xash.length_segment(xash.hash_value("boxer")) != xash.length_segment(
            xash.hash_value("birder")
        )

    def test_character_position_matters(self, xash):
        # Same characters, same length, different positions.
        assert xash.hash_value("abcdef") != xash.hash_value("fedcba")

    def test_different_characters_differ(self, xash):
        assert xash.hash_value("muhammad") != xash.hash_value("gretchen")

    def test_case_and_whitespace_of_alphabet_only(self, xash):
        # Values are already normalised by the data model; XASH itself only
        # lowercases characters, so differently-cased input maps identically.
        assert xash.hash_value("Lee".lower()) == xash.hash_value("lee")


class TestSelectCharacters:
    def test_selects_rarest_characters(self, xash, config):
        characters = xash.normalized_characters("muhammad")
        selected = xash.select_characters(characters)
        assert len(selected) <= config.characters_per_value
        # 'h' and 'd' are much rarer than 'a' and 'm' in English; both must be
        # among the selected characters.
        assert "h" in selected
        assert "d" in selected

    def test_budget_respected_for_long_values(self, xash, config):
        characters = xash.normalized_characters("abcdefghijklmnopqrstuvwxyz")
        assert len(xash.select_characters(characters)) == config.characters_per_value

    def test_empty_value(self, xash):
        assert xash.select_characters([]) == []


class TestLocationEncoding:
    def test_location_bit_range(self, xash, config):
        characters = xash.normalized_characters("muhammad")
        for character in set(characters):
            offset = xash.character_location_bit(character, characters)
            assert 0 <= offset < config.beta

    def test_first_and_last_character_locations_differ(self, xash):
        characters = xash.normalized_characters("muhammad")
        # 'u' occurs early (position 2 of 8), 'd' at the end (position 8).
        assert xash.character_location_bit("u", characters) < xash.character_location_bit(
            "d", characters
        )

    def test_missing_character_raises(self, xash):
        with pytest.raises(HashingError):
            xash.character_location_bit("z", list("abc"))


class TestRotation:
    def test_rotation_changes_character_region_not_length(self, config):
        from dataclasses import replace

        with_rotation = XashHashFunction(config)
        without_rotation = XashHashFunction(replace(config, rotation=False))
        value = "photographer"
        rotated = with_rotation.hash_value(value)
        plain = without_rotation.hash_value(value)
        assert with_rotation.length_segment(rotated) == without_rotation.length_segment(
            plain
        )
        assert with_rotation.character_region(rotated) != without_rotation.character_region(
            plain
        )

    def test_rotation_preserves_bit_count(self, config):
        from dataclasses import replace

        with_rotation = XashHashFunction(config)
        without_rotation = XashHashFunction(replace(config, rotation=False))
        for value in ("muhammad", "dresden", "germany"):
            assert popcount(with_rotation.hash_value(value)) == popcount(
                without_rotation.hash_value(value)
            )


class TestAggregation:
    def test_hash_values_is_or_of_hashes(self, xash):
        values = ["muhammad", "lee", "us"]
        aggregated = xash.hash_values(values)
        expected = 0
        for value in values:
            expected |= xash.hash_value(value)
        assert aggregated == expected

    def test_registry_returns_xash(self, config):
        assert isinstance(create_hash_function("xash", config), XashHashFunction)
        assert isinstance(create_hash_function("XASH", config), XashHashFunction)


class TestHashSizes:
    @pytest.mark.parametrize("hash_size", [64, 128, 256, 512])
    def test_layout_consistency(self, hash_size):
        config = MateConfig(hash_size=hash_size, expected_unique_values=700_000_000)
        xash = XashHashFunction(config)
        hashed = xash.hash_value("hannover")
        assert hashed < (1 << hash_size)
        assert popcount(hashed) <= config.alpha
