"""Differential suite pinning the vectorized reject test to the loop.

:func:`repro.index.kernels.entry_coverage` is driven against the per-row
subsumption test over hypothesis-generated packed blocks, and the
request-level arrays built from its bitmaps (``tests/test_batch_execution.py``)
against :func:`reference_prefilter` — an independent per-row implementation
that replicates the legacy ``SuperKeyPrefilter`` scan: ``RowFilter.passes``
counter semantics, the XASH length-segment short-circuit, and
table-filtering rule 2.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.index.kernels import entry_coverage

WIDTHS = [1, 2, 4, 8, 16]

VALUES = ["v0", "v1", "v2", "v3"]


# ----------------------------------------------------------------------
# The reference: a per-row loop replicating the legacy stage exactly.
# ----------------------------------------------------------------------
def reference_prefilter(
    *,
    values,
    row_indexes,
    packed,
    width,
    key_map,
    posting_count,
    mode="superkey",
    length_shift=None,
    min_joinability=None,
):
    """The per-row prefilter scan of ``tests.helpers.legacy_discover``,
    spelled out.

    Per row: the rule-2 abandon check (``L_t - r_checked + r_match <= j_k``)
    *before* the row is counted, then one ``RowFilter.passes`` call per
    key-map entry — a ``superkey_checks`` increment, the length-segment
    short-circuit (``(key >> s) & ~(row >> s) != 0`` counted into
    ``short_circuit_hits``), and the subsumption test ``key & ~row == 0``.
    Mode ``"none"`` accepts every entry without touching the counters.
    """
    n = len(row_indexes)
    track_sc = (
        length_shift is not None and width > 0 and length_shift < 8 * width
    )
    rows_checked = 0
    rows_matched = 0
    superkey_checks = 0
    short_circuit_hits = 0
    surviving = []
    abandoned = False
    for position in range(n):
        if (
            min_joinability is not None
            and posting_count - rows_checked + rows_matched <= min_joinability
        ):
            abandoned = True
            break
        rows_checked += 1
        entries = key_map.get(values[position], ())
        row_survived = False
        if mode == "superkey" and entries:
            row = int.from_bytes(
                packed[position * width : (position + 1) * width], "big"
            )
        for key_tuple, key_super_key in entries:
            if mode == "none":
                surviving.append((row_indexes[position], key_tuple))
                row_survived = True
                continue
            superkey_checks += 1
            if track_sc and (key_super_key >> length_shift) & ~(row >> length_shift):
                short_circuit_hits += 1
            if key_super_key & ~row == 0:
                surviving.append((row_indexes[position], key_tuple))
                row_survived = True
        if row_survived:
            rows_matched += 1
    return {
        "surviving": surviving,
        "rows_checked": rows_checked,
        "rows_matched": rows_matched,
        "superkey_checks": superkey_checks,
        "short_circuit_hits": short_circuit_hits,
        "abandoned": abandoned,
    }


# ----------------------------------------------------------------------
# Case generation: packed blocks with biased keys so coverage both hits
# and misses, plus optional short-circuit segment and rule-2 bound.
# ----------------------------------------------------------------------
@st.composite
def block_cases(draw):
    width = draw(st.sampled_from(WIDTHS))
    bits = 8 * width
    n = draw(st.integers(min_value=0, max_value=24))
    row_keys = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            min_size=n,
            max_size=n,
        )
    )
    values = draw(st.lists(st.sampled_from(VALUES), min_size=n, max_size=n))
    # Non-trivial but deterministic row indexes (table rows need not be 0..n).
    row_indexes = [3 * position + 1 for position in range(n)]
    packed = b"".join(key.to_bytes(width, "big") for key in row_keys)

    key_map = {}
    for value in VALUES:
        entries = []
        for level in range(draw(st.integers(min_value=0, max_value=2))):
            if row_keys and draw(st.booleans()):
                # Bias towards subsets of a real row key so coverage fires.
                base = row_keys[draw(st.integers(0, len(row_keys) - 1))]
                mask = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
                key = base & mask
            else:
                key = draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
            entries.append(((f"{value}-k{level}",), key))
        if entries:
            key_map[value] = tuple(entries)

    length_shift = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=bits - 1))
    )
    min_joinability = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=n + 2))
    )
    return {
        "values": values,
        "row_indexes": row_indexes,
        "packed": packed,
        "width": width,
        "key_map": key_map,
        "posting_count": n,
        "length_shift": length_shift,
        "min_joinability": min_joinability,
    }


class TestEntryCoverageDifferential:
    @given(case=block_cases())
    @settings(max_examples=80, deadline=None)
    def test_coverage_bitmaps_match_per_row_tests(self, case):
        packed, width = case["packed"], case["width"]
        n = case["posting_count"]
        length_shift = case["length_shift"]
        track_sc = length_shift is not None and length_shift < 8 * width
        for entries in case["key_map"].values():
            for _key_tuple, key in entries:
                cov, sc = entry_coverage(packed, width, key, length_shift)
                rows = [
                    int.from_bytes(
                        packed[position * width : (position + 1) * width], "big"
                    )
                    for position in range(n)
                ]
                assert list(cov) == [int(key & ~row == 0) for row in rows]
                if track_sc:
                    assert sc is not None
                    assert list(sc) == [
                        int((key >> length_shift) & ~(row >> length_shift) != 0)
                        for row in rows
                    ]
                else:
                    assert sc is None

    def test_rejects_misaligned_buffer(self):
        with pytest.raises(ValueError):
            entry_coverage(b"\x00\x00\x00", 2, 1, None)

    def test_oversize_key_is_refused(self):
        # A key wider than the packed slots has no lane to be tested in: an
        # engine whose hash size differs from its index's is refused before
        # it could ask (tests/test_engine_hash_size.py).
        packed = (0xFFFF).to_bytes(2, "big") * 2 + (0x0F00).to_bytes(2, "big")
        with pytest.raises(OverflowError):
            entry_coverage(packed, 2, 1 << 40, 8)
        assert entry_coverage(packed, 2, 0x0F00, 8) == (b"\x01" * 3, bytes(3))


# ----------------------------------------------------------------------
# Columnar indexes for the request-level arrays (tests/test_batch_execution).
# ----------------------------------------------------------------------
@st.composite
def index_cases(draw):
    hash_size = draw(st.sampled_from([16, 64, 128]))
    limit = (1 << hash_size) - 1
    num_tables = draw(st.integers(min_value=1, max_value=4))
    postings = []
    for table_id in range(num_tables):
        rows = draw(st.integers(min_value=0, max_value=8))
        for row_index in range(rows):
            value = draw(st.sampled_from(VALUES))
            key = draw(st.integers(min_value=0, max_value=limit))
            postings.append((value, table_id, row_index, key))
    key_map = {}
    for value in VALUES:
        entries = []
        for level in range(draw(st.integers(min_value=0, max_value=2))):
            if postings and draw(st.booleans()):
                base = postings[draw(st.integers(0, len(postings) - 1))][3]
                key = base & draw(st.integers(min_value=0, max_value=limit))
            else:
                key = draw(st.integers(min_value=0, max_value=limit))
            entries.append(((f"{value}-k{level}",), key))
        if entries:
            key_map[value] = tuple(entries)
    length_shift = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=hash_size - 1))
    )
    bound = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=10)))
    return hash_size, postings, key_map, length_shift, bound
