"""Tests for repro.hashing.superkey: super-key construction and probing."""

import pytest

from repro.hashing import SuperKeyGenerator, subsumes


@pytest.fixture(params=["xash", "bloom", "hashtable", "md5"])
def generator(request, config) -> SuperKeyGenerator:
    return SuperKeyGenerator.from_name(request.param, config)


class TestConstruction:
    def test_row_super_key_is_or_of_value_hashes(self, generator):
        row = ["muhammad", "lee", "us", "dancer"]
        expected = 0
        for value in row:
            expected |= generator.value_hash(value)
        assert generator.row_super_key(row) == expected

    def test_key_super_key_equals_row_super_key_of_key_values(self, generator):
        key = ("muhammad", "lee", "us")
        assert generator.key_super_key(key) == generator.row_super_key(key)

    def test_missing_values_contribute_nothing(self, generator):
        assert generator.row_super_key(["", "", ""]) == 0
        assert generator.row_super_key(["lee", ""]) == generator.value_hash("lee")

    def test_value_hash_is_memoised(self, config):
        generator = SuperKeyGenerator.from_name("xash", config)
        first = generator.value_hash("dresden")
        assert generator._cache["dresden"] == first
        assert generator.value_hash("dresden") == first

    def test_memo_is_bounded_and_eviction_keeps_hashes(self, config, monkeypatch):
        monkeypatch.setattr("repro.hashing.base.MAX_MEMO_ENTRIES", 8)
        generator = SuperKeyGenerator.from_name("xash", config)
        values = [f"value {number}" for number in range(50)]
        first = [generator.value_hash(value) for value in values]
        assert len(generator._cache) <= 8
        # Every value but the last few was evicted on the way; all re-hash equal.
        assert generator.row_super_key(values[:3]) == first[0] | first[1] | first[2]
        assert [generator.value_hash(value) for value in values] == first
        assert len(generator._cache) <= 8


class TestCovers:
    def test_key_in_row_is_always_covered(self, generator):
        row = ["muhammad", "lee", "us", "dancer", "1987"]
        row_super_key = generator.row_super_key(row)
        key_super_key = generator.key_super_key(("muhammad", "us"))
        assert generator.covers(row_super_key, key_super_key)

    def test_covers_matches_subsumes(self, generator):
        row_super_key = generator.row_super_key(["a", "b"])
        key_super_key = generator.key_super_key(("c",))
        assert generator.covers(row_super_key, key_super_key) == subsumes(
            row_super_key, key_super_key
        )

    def test_short_circuit_only_for_xash(self, config):
        xash_generator = SuperKeyGenerator.from_name("xash", config)
        bloom_generator = SuperKeyGenerator.from_name("bloom", config)
        row = ["boxer", "berlin"]
        key = ("photographer",)  # different length than any row value
        covered, short_circuited = xash_generator.covers_with_short_circuit(
            xash_generator.row_super_key(row), xash_generator.key_super_key(key)
        )
        assert not covered
        assert short_circuited
        covered, short_circuited = bloom_generator.covers_with_short_circuit(
            bloom_generator.row_super_key(row), bloom_generator.key_super_key(key)
        )
        assert not short_circuited

    def test_short_circuit_never_fires_for_contained_keys(self, config):
        generator = SuperKeyGenerator.from_name("xash", config)
        row = ["muhammad", "lee", "us"]
        covered, short_circuited = generator.covers_with_short_circuit(
            generator.row_super_key(row), generator.key_super_key(("lee", "us"))
        )
        assert covered
        assert not short_circuited


class TestNoFalseNegativesExamples:
    """Concrete spot-checks of the Section 6.3 no-false-negative lemma."""

    def test_running_example_rows(self, config, running_example_tables):
        query, candidate = running_example_tables
        generator = SuperKeyGenerator.from_name("xash", config)
        key_tuples = query.key_tuples()
        for row in candidate.rows:
            row_super_key = generator.row_super_key(row)
            row_values = set(row)
            for key in key_tuples:
                if set(key) <= row_values:
                    assert generator.covers(
                        row_super_key, generator.key_super_key(key)
                    ), f"false negative for key {key} in row {row}"

    def test_fifth_and_sixth_rows_are_prunable(self, config, running_example_tables):
        # Example 3 of the paper: the rows containing "Muhammad Ali" and
        # "Muhammad Lee Germany ... Birder" must not cover the key
        # <muhammad, lee, us>.  (This is a filtering-power expectation, not a
        # correctness requirement; XASH achieves it.)
        query, candidate = running_example_tables
        generator = SuperKeyGenerator.from_name("xash", config)
        key = ("muhammad", "lee", "us")
        key_super_key = generator.key_super_key(key)
        ali_row = candidate.rows[4]      # muhammad ali us boxer
        birder_row = candidate.rows[5]   # muhammad lee germany birder
        assert not generator.covers(generator.row_super_key(ali_row), key_super_key)
        assert not generator.covers(generator.row_super_key(birder_row), key_super_key)
