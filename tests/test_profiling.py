"""Tests for corpus profiling (repro.lake.profiling)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_ALPHABET
from repro.datagen import generate_corpus
from repro.datamodel import Table, TableCorpus
from repro.lake import (
    ColumnType,
    CorpusProfiler,
    character_frequencies_from_values,
    corpus_character_frequencies,
    profile_column,
    profile_corpus,
    profile_table,
    value_frequency_profile,
)


@pytest.fixture()
def small_corpus():
    corpus = TableCorpus(name="small")
    corpus.create_table(
        name="people",
        columns=["name", "country", "score"],
        rows=[
            ["muhammad", "us", "1.5"],
            ["ansel", "uk", "2.5"],
            ["ansel", "us", "3.5"],
        ],
    )
    corpus.create_table(
        name="cities",
        columns=["city", "country"],
        rows=[
            ["berlin", "germany"],
            ["hannover", "germany"],
            ["brooklyn", "us"],
        ],
    )
    return corpus


class TestColumnAndTableProfiles:
    def test_profile_column_statistics(self, small_corpus):
        table = small_corpus.get_table(0)
        stats = profile_column(table, "name")
        assert stats.cardinality == 2
        assert stats.num_values == 3
        assert stats.num_missing == 0
        assert stats.min_length == len("ansel")
        assert stats.max_length == len("muhammad")
        assert stats.column_type is ColumnType.TEXT

    def test_profile_column_with_missing_values(self):
        table = Table(
            table_id=9, name="gaps", columns=["a"], rows=[[""], ["x"], [""]]
        )
        stats = profile_column(table, "a")
        assert stats.num_missing == 2
        assert stats.cardinality == 1

    def test_profile_table_covers_all_columns(self, small_corpus):
        table = small_corpus.get_table(0)
        stats = profile_table(table)
        assert [s.column for s in stats] == ["name", "country", "score"]
        assert stats[2].column_type is ColumnType.FLOAT

class TestCharacterFrequencies:
    def test_frequencies_sum_to_100_percent(self, small_corpus):
        frequencies = corpus_character_frequencies(small_corpus)
        assert set(frequencies) == set(DEFAULT_ALPHABET)
        assert math.isclose(sum(frequencies.values()), 100.0, rel_tol=1e-9)

    def test_unused_characters_have_zero_frequency(self):
        frequencies = character_frequencies_from_values(["aaa", "ab"])
        assert frequencies["a"] > frequencies["b"] > 0
        assert frequencies["z"] == 0.0

    def test_empty_input_gives_all_zero(self):
        frequencies = character_frequencies_from_values([])
        assert set(frequencies) == set(DEFAULT_ALPHABET)
        assert all(value == 0.0 for value in frequencies.values())

    def test_non_alphabet_characters_are_folded(self):
        frequencies = character_frequencies_from_values(["ümlaut"])
        assert math.isclose(sum(frequencies.values()), 100.0, rel_tol=1e-9)

    def test_sample_tables_limits_the_scan(self, small_corpus):
        only_first = corpus_character_frequencies(small_corpus, sample_tables=1)
        everything = corpus_character_frequencies(small_corpus)
        assert only_first != everything

    @given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=8), min_size=1))
    @settings(max_examples=25)
    def test_property_frequencies_always_normalised(self, values):
        frequencies = character_frequencies_from_values(values)
        total = sum(frequencies.values())
        assert math.isclose(total, 100.0, rel_tol=1e-9) or total == 0.0


class TestValueFrequencyProfile:
    def test_occurrences_sorted_descending(self, small_corpus):
        profile = value_frequency_profile(small_corpus)
        assert list(profile.occurrences) == sorted(profile.occurrences, reverse=True)
        # "us" appears 3 times, "germany" and "ansel" twice.
        assert profile.max == 3
        assert profile.total_occurrences == sum(profile.occurrences)

    def test_mean(self, small_corpus):
        profile = value_frequency_profile(small_corpus)
        assert profile.mean == pytest.approx(
            profile.total_occurrences / len(profile.occurrences)
        )

    def test_zipf_exponent_is_negative_for_skewed_corpus(self):
        corpus = generate_corpus("webtables", seed=3, scale=0.2)
        profile = value_frequency_profile(corpus)
        assert profile.zipf_exponent() < -0.1

    def test_degenerate_profiles(self):
        empty = value_frequency_profile(TableCorpus(name="empty"))
        assert empty.mean == 0.0
        assert empty.max == 0
        assert empty.zipf_exponent() == 0.0


class TestCorpusProfiler:
    def test_profile_headline_numbers(self, small_corpus):
        profile = CorpusProfiler().profile(small_corpus)
        assert profile.num_tables == 2
        assert profile.num_rows == 6
        assert profile.num_columns == 5
        assert profile.num_unique_values == len(small_corpus.unique_values())
        assert 0.0 < profile.short_value_fraction <= 1.0
        assert profile.column_type_counts["text"] >= 3

    def test_recommended_config_uses_measured_statistics(self, small_corpus):
        profile = profile_corpus(small_corpus)
        config = profile.recommended_config(hash_size=128, k=5)
        assert config.k == 5
        assert config.expected_unique_values == profile.num_unique_values
        assert config.character_frequencies == profile.character_frequencies

    def test_recommended_config_english_fallback(self, small_corpus):
        profile = profile_corpus(small_corpus)
        config = profile.recommended_config(use_corpus_frequencies=False)
        assert config.character_frequencies != profile.character_frequencies

    def test_profile_as_dict(self, small_corpus):
        payload = profile_corpus(small_corpus).as_dict()
        assert payload["tables"] == 2
        assert "pl_zipf_exponent" in payload
        assert payload["short_value_fraction"] <= 1.0

    def test_synthetic_corpus_matches_substitution_argument(self):
        """The synthetic web-table corpus has the properties DESIGN.md claims."""
        corpus = generate_corpus("webtables", seed=11, scale=0.25)
        profile = profile_corpus(corpus)
        # Heavy value re-use: mean posting-list length well above 1.
        assert profile.value_frequency.mean > 1.5
        # Values short enough for the 128-bit length segment.
        assert profile.short_value_fraction > 0.8
        # Skewed PL length distribution: the top 1 % of values own > 2 %.
        occurrences = profile.value_frequency.occurrences
        head = max(1, len(occurrences) // 100)
        assert sum(occurrences[:head]) / sum(occurrences) > 0.02
