"""XASH never changes a bit: golden vectors, a differential against the
pre-rewrite implementation, and byte identity of a written segment — through
both entry points, ``hash_value`` (queries, ingest) and ``hash_batch`` (the
bulk build).

Stored super keys (``.seg`` files, SQLite, shard directories) are compared
against freshly hashed query keys, so a drifted bit is a silent false negative
on every existing index.  ``tests/data/xash_golden.json`` was generated by the
implementation those indexes were built with; never regenerate it to make a
test pass.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, MateConfig
from repro.datagen import build_workload
from repro.hashing import SuperKeyGenerator, create_hash_function
from repro.hashing import xash as xash_module
from repro.index import IndexBuilder, build_index
from repro.storage import write_segment
from tests.helpers import LegacyShortXash, LegacyXash, legacy_xash_hash

#: The two hash entry points: per value and per batch.
ENTRY_POINTS = ["scalar", "batch"]


def hashes_through(entry_point: str, function, values: list[str]) -> list[int]:
    """The hash of every value through one of :data:`ENTRY_POINTS`."""
    if entry_point == "scalar":
        return [function.hash_value(value) for value in values]
    return [
        int.from_bytes(row.tobytes(), "big") for row in function.hash_batch(values)
    ]


GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "xash_golden.json").read_text(encoding="utf-8")
)
GOLDEN_CONFIGS = {"MateConfig()": MateConfig(), "DEFAULT_CONFIG": DEFAULT_CONFIG}

#: U+0130 is the one character whose ``str.lower()`` is two code points; the
#: legacy implementation raises on it (see ``test_xash.py`` for its hash now).
legacy_hashable_text = st.text(alphabet=st.characters(exclude_characters="İ"))

#: All 16 settings of the four ablation switches x every bit budget 2..8, then
#: both golden configurations at every other hash size.
DIFFERENTIAL_CONFIGS = [
    replace(
        MateConfig(),
        rotation=rotation,
        encode_length=encode_length,
        encode_location=encode_location,
        use_rare_characters=use_rare_characters,
        number_of_ones=number_of_ones,
    )
    for rotation, encode_length, encode_location, use_rare_characters in product(
        (True, False), repeat=4
    )
    for number_of_ones in range(2, 9)
] + [
    base.with_hash_size(hash_size)
    for base in GOLDEN_CONFIGS.values()
    for hash_size in (64, 256, 512, 1024)
]


class TestGoldenVectors:
    def test_the_vectors_cover_what_they_claim(self):
        values = GOLDEN["values"]
        assert len(values) >= 2000 and len(set(values)) == len(values)
        assert {len(value) for value in values} >= set(range(201))
        assert len(GOLDEN["hashes"]) == 2 * 2 * 5

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    @pytest.mark.parametrize("key", sorted(GOLDEN["hashes"]))
    def test_hashes_equal_the_committed_bits(self, key, entry_point):
        name, label, hash_size = key.split("/")
        config = GOLDEN_CONFIGS[label].with_hash_size(int(hash_size))
        hashes = hashes_through(
            entry_point, create_hash_function(name, config), GOLDEN["values"]
        )
        drifted = [
            value
            for value, hashed, bits in zip(
                GOLDEN["values"], hashes, GOLDEN["hashes"][key]
            )
            if hashed != sum(1 << bit for bit in bits)
        ]
        assert drifted == []


class TestDifferentialAgainstLegacy:
    PAIRS = [
        (create_hash_function(name, config), legacy(config))
        for config in DIFFERENTIAL_CONFIGS
        for name, legacy in (("xash", LegacyXash), ("xash_short", LegacyShortXash))
    ]

    @given(value=legacy_hashable_text)
    @settings(max_examples=150, deadline=None)
    def test_every_switch_combination_budget_and_hash_size(self, value):
        for function, legacy in self.PAIRS:
            assert function.hash_value(value) == legacy.hash_value(value), (
                function.name,
                function.config,
            )

    def test_float_rounding_on_segment_borders(self):
        # Three occurrences at 1, 2 and ``third``: whenever ``avg * beta /
        # length`` is an integer mathematically, the float rounding of the
        # inexact average decides the bit — and must decide it as before (an
        # exact integer ``ceil`` lands some of these one bit lower).
        config = MateConfig(hash_size=1024)
        function, beta = create_hash_function("xash", config), config.beta
        on_border = 0
        for length in range(3, 130):
            for third in range(3, length + 1):
                if (3 + third) * beta % (3 * length):
                    continue
                on_border += 1
                characters = ["e"] * length
                for position in (1, 2, third):
                    characters[position - 1] = "q"
                value = "".join(characters)
                assert function.hash_value(value) == legacy_xash_hash(value, config)
        assert on_border > 50


class TestBatchAgainstScalar:
    """``hash_batch`` row ``i`` is ``hash_value(values[i])``, whatever the
    text, the switches, the batch size and what else shares the batch."""

    FUNCTIONS = [
        create_hash_function(name, config)
        for config in DIFFERENTIAL_CONFIGS[::7] + DIFFERENTIAL_CONFIGS[-8:]
        for name in ("xash", "xash_short", "xash_length")
    ]

    @given(
        values=st.lists(
            st.one_of(st.text(), st.sampled_from(["", "İstanbul", "ß", "漢字", "𝔘x", "\ud800 lone"])),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_text_every_switch_and_batch_size(self, values):
        # Batches of 1, 2 and more values than one array pass takes, with
        # duplicates and the empty value inside.
        values = values + values[:2] + [""]
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(xash_module, "BATCH_VALUES", 3)
            for function in self.FUNCTIONS:
                expected = hashes_through("scalar", function, values)
                for size in (1, 2, len(values)):
                    assert hashes_through("batch", function, values[:size]) == (
                        expected[:size]
                    ), (function.name, function.config)

    def test_a_batch_beyond_the_real_bound(self):
        values = [
            value + suffix for suffix in ("", "-b", " c") for value in GOLDEN["values"]
        ]
        assert len(values) > xash_module.BATCH_VALUES
        function = create_hash_function("xash", MateConfig())
        assert hashes_through("batch", function, values) == (
            hashes_through("scalar", function, values)
        )
        assert function.hash_batch([]).shape == (0, 16)

    def test_float_rounding_on_segment_borders(self):
        # The values of TestDifferentialAgainstLegacy's border test, batched.
        config = MateConfig(hash_size=1024)
        function, beta = create_hash_function("xash", config), config.beta
        values = []
        for length in range(3, 130):
            for third in range(3, length + 1):
                if (3 + third) * beta % (3 * length) == 0:
                    characters = ["e"] * length
                    for position in (1, 2, third):
                        characters[position - 1] = "q"
                    values.append("".join(characters))
        assert len(values) > 50
        assert hashes_through("batch", function, values) == [
            legacy_xash_hash(value, config) for value in values
        ]


class TestPublicViewsAgreeWithLegacy:
    """``normalized_characters`` / ``select_characters`` /
    ``character_location_bit`` on the values ``test_xash.py`` uses."""

    VALUES = [
        "muhammad", "lee", "us", "photographer", "germany", "1999-12-31", "a b c",
        "x" * 100, "boxer", "birder", "abcdef", "fedcba", "gretchen", "dresden",
        "hannover", "abcdefghijklmnopqrstuvwxyz", "Lee", "é",
    ]  # fmt: skip

    @pytest.mark.parametrize(
        "config",
        [
            MateConfig(hash_size=128, expected_unique_values=700_000_000),
            DEFAULT_CONFIG,
            replace(MateConfig(), use_rare_characters=False),
            replace(MateConfig(), encode_location=False),
        ],
    )
    def test_views_match(self, config):
        function = create_hash_function("xash", config)
        legacy = LegacyXash(config)
        for value in self.VALUES:
            characters = function.normalized_characters(value)
            assert characters == legacy.normalized_characters(value)
            selected = function.select_characters(characters)
            assert selected == legacy.select_characters(characters)
            for character in set(characters):
                assert function.character_location_bit(
                    character, characters
                ) == legacy.character_location_bit(character, characters)
        assert function.select_characters([]) == legacy.select_characters([]) == []


def test_written_segment_is_byte_identical_to_the_legacy_hash(tmp_path):
    corpus = build_workload("WT_10", seed=5, num_queries=1, corpus_scale=0.1).corpus
    config = MateConfig()
    legacy_builder = IndexBuilder(
        config=config, super_key_generator=SuperKeyGenerator(LegacyXash(config))
    )
    digests = [
        hashlib.sha256(
            write_segment(index, tmp_path / name, fsync=False).read_bytes()
        ).hexdigest()
        for name, index in (
            ("one-pass.seg", build_index(corpus, config=config)),
            ("legacy.seg", legacy_builder.build(corpus)),
        )
    ]
    assert digests[0] == digests[1]
