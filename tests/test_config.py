"""Tests for repro.config: Eq. 5 / Eq. 6 derivations and validation."""

import pytest

from repro.config import (
    DEFAULT_ALPHABET,
    DEFAULT_CONFIG,
    MateConfig,
    character_segment_width,
    required_number_of_ones,
)
from repro.exceptions import ConfigurationError


class TestRequiredNumberOfOnes:
    def test_paper_example_128_bits_700m_values(self):
        # Section 5.3.1: 128-bit hash and 700M unique values -> alpha = 6.
        assert required_number_of_ones(128, 700_000_000) == 6

    def test_small_corpus_needs_fewer_ones(self):
        assert required_number_of_ones(128, 100) <= 2

    def test_monotone_in_unique_values(self):
        previous = 0
        for unique in (10, 10_000, 10_000_000, 10_000_000_000):
            alpha = required_number_of_ones(128, unique)
            assert alpha >= previous
            previous = alpha

    def test_larger_hash_needs_fewer_ones(self):
        assert required_number_of_ones(512, 700_000_000) <= required_number_of_ones(
            128, 700_000_000
        )

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ConfigurationError):
            required_number_of_ones(0, 100)
        with pytest.raises(ConfigurationError):
            required_number_of_ones(128, 0)


class TestCharacterSegmentWidth:
    def test_paper_values(self):
        # Section 5.3.2: beta = 3 for 128 bits and 37 characters.
        assert character_segment_width(128, 37) == 3
        # 512 bits -> beta = 13 and a 31-bit length segment.
        assert character_segment_width(512, 37) == 13

    def test_leaves_room_for_length_segment(self):
        for hash_size in (64, 128, 256, 512, 1024):
            beta = character_segment_width(hash_size, 37)
            assert 37 * beta < hash_size

    def test_rejects_hash_smaller_than_alphabet(self):
        with pytest.raises(ConfigurationError):
            character_segment_width(30, 37)


class TestMateConfig:
    def test_default_layout_matches_paper(self):
        config = MateConfig(hash_size=128, expected_unique_values=700_000_000)
        assert config.alpha == 6
        assert config.characters_per_value == 5
        assert config.beta == 3
        assert config.character_region_bits == 111
        assert config.length_segment_bits == 17

    def test_512_bit_layout(self):
        config = MateConfig(hash_size=512, expected_unique_values=700_000_000)
        assert config.beta == 13
        assert config.length_segment_bits == 512 - 37 * 13 == 31

    def test_explicit_number_of_ones_wins(self):
        config = MateConfig(number_of_ones=4)
        assert config.alpha == 4
        assert config.characters_per_value == 3

    def test_default_config_budget_is_pinned(self):
        # comb(128, 3) = 341,376 > 300,000: two character bits and a length
        # bit.  Stored test hashes and the golden vectors depend on it.
        assert DEFAULT_CONFIG.alpha == 3
        assert DEFAULT_CONFIG.characters_per_value == 2

    def test_with_hash_size_preserves_other_fields(self):
        config = MateConfig(hash_size=128, k=7, rotation=False)
        resized = config.with_hash_size(256)
        assert resized.hash_size == 256
        assert resized.k == 7
        assert resized.rotation is False

    def test_with_k(self):
        assert MateConfig().with_k(20).k == 20

    def test_alphabet_has_37_characters(self):
        assert len(DEFAULT_ALPHABET) == 37
        assert len(set(DEFAULT_ALPHABET)) == 37

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hash_size": 0},
            {"hash_size": -128},
            {"k": 0},
            {"alphabet": "aab"},
            {"alphabet": "a"},
            {"hash_size": 20},  # smaller than the alphabet
            {"number_of_ones": 1},
            {"expected_unique_values": 0},
        ],
    )
    def test_invalid_configurations_raise(self, kwargs):
        with pytest.raises(ConfigurationError):
            MateConfig(**kwargs)

    def test_frozen(self):
        config = MateConfig()
        with pytest.raises(Exception):
            config.hash_size = 256  # type: ignore[misc]
