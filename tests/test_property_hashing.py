"""Property-based tests (hypothesis) for the hashing layer.

The single most important property is the paper's no-false-negative lemma
(Section 6.3): for *any* row and *any* composite key whose values all appear
in the row, the row super key must cover the key's aggregated hash — for every
registered hash function, at every hash size.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.config import MateConfig
from repro.hashing import (
    SuperKeyGenerator,
    create_hash_function,
    popcount,
    rotate_left,
    subsumes,
)

#: Cell values: printable-ish strings including unicode and digits.
cell_values = st.text(
    alphabet=st.sampled_from(
        string.ascii_letters + string.digits + " -_./äöüéßλ中"
    ),
    min_size=0,
    max_size=20,
)

rows = st.lists(cell_values, min_size=1, max_size=8)

hash_names = st.sampled_from(
    ["xash", "bloom", "lhbf", "hashtable", "md5", "murmur", "cityhash", "simhash",
     "xash_length", "xash_rare", "xash_char_loc", "xash_char_len_loc"]
)

hash_sizes = st.sampled_from([64, 128, 256, 512])


def make_generator(name: str, hash_size: int) -> SuperKeyGenerator:
    config = MateConfig(hash_size=hash_size, expected_unique_values=700_000_000)
    return SuperKeyGenerator(create_hash_function(name, config))


class TestNoFalseNegatives:
    @given(row=rows, name=hash_names, hash_size=hash_sizes, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_key_subset_of_row_is_always_covered(self, row, name, hash_size, data):
        generator = make_generator(name, hash_size)
        key_size = data.draw(st.integers(1, len(row)))
        key_positions = data.draw(
            st.lists(
                st.integers(0, len(row) - 1),
                min_size=key_size,
                max_size=key_size,
                unique=True,
            )
        )
        normalized_row = [value.strip().lower() for value in row]
        key = tuple(normalized_row[i] for i in key_positions)
        row_super_key = generator.row_super_key(normalized_row)
        key_super_key = generator.key_super_key(key)
        assert generator.covers(row_super_key, key_super_key)
        covered, _ = generator.covers_with_short_circuit(row_super_key, key_super_key)
        assert covered


class TestHashInvariants:
    @given(value=cell_values, name=hash_names, hash_size=hash_sizes)
    @settings(max_examples=150, deadline=None)
    def test_hash_fits_width_and_is_deterministic(self, value, name, hash_size):
        generator = make_generator(name, hash_size)
        hashed = generator.value_hash(value.strip().lower())
        assert 0 <= hashed < (1 << hash_size)
        assert hashed == generator.value_hash(value.strip().lower())

    @given(value=cell_values, hash_size=hash_sizes)
    @settings(max_examples=100, deadline=None)
    def test_xash_respects_alpha_budget(self, value, hash_size):
        config = MateConfig(hash_size=hash_size, expected_unique_values=700_000_000)
        hash_function = create_hash_function("xash", config)
        assert popcount(hash_function.hash_value(value.strip().lower())) <= config.alpha

    @given(row=rows, name=hash_names)
    @settings(max_examples=100, deadline=None)
    def test_aggregation_is_monotone(self, row, name):
        generator = make_generator(name, 128)
        normalized_row = [value.strip().lower() for value in row]
        partial = generator.row_super_key(normalized_row[:-1])
        full = generator.row_super_key(normalized_row)
        assert subsumes(full, partial)

    @given(row=rows, name=hash_names)
    @settings(max_examples=100, deadline=None)
    def test_aggregation_is_order_independent(self, row, name):
        generator = make_generator(name, 128)
        normalized_row = [value.strip().lower() for value in row]
        assert generator.row_super_key(normalized_row) == generator.row_super_key(
            list(reversed(normalized_row))
        )


class TestRotationProperties:
    @given(
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
        shift=st.integers(min_value=0, max_value=200),
        width=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_rotation_is_a_bijection(self, value, shift, width):
        value &= (1 << width) - 1
        rotated = rotate_left(value, shift, width)
        assert rotate_left(rotated, width - shift % width, width) == value
        assert popcount(rotated) == popcount(value)

    @given(
        value=st.integers(min_value=0, max_value=(1 << 64) - 1),
        width=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_rotation_by_width_is_identity(self, value, width):
        value &= (1 << width) - 1
        assert rotate_left(value, width, width) == value


class TestSubsumptionProperties:
    @given(
        a=st.integers(min_value=0, max_value=(1 << 128) - 1),
        b=st.integers(min_value=0, max_value=(1 << 128) - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_subsumes_iff_or_equals_superset(self, a, b):
        assert subsumes(a, b) == ((a | b) == a)

    @given(a=st.integers(min_value=0, max_value=(1 << 128) - 1))
    @settings(max_examples=50, deadline=None)
    def test_reflexive_and_zero(self, a):
        assert subsumes(a, a)
        assert subsumes(a, 0)
