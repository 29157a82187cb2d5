"""Differential suite pinning the vectorized prefilter kernels to the loop.

Every kernel entry point is driven against an independent per-row reference
implementation that replicates the legacy ``SuperKeyPrefilter`` scan —
``RowFilter.passes`` counter semantics, the XASH length-segment
short-circuit, and table-filtering rule 2 — over hypothesis-generated
blocks:

* :func:`repro.index.kernels.prefilter_block` (the stdlib kernel under every
  selection, so not parametrised), in ``superkey`` and ``none`` row-filter
  modes;
* the coverage-splicing fast path (``entry_coverage`` /
  ``FetchBlock.query_coverage`` / ``prefilter_table_block``), exercised
  through a real columnar :class:`~repro.index.inverted.InvertedIndex` and
  :func:`~repro.index.columnar.group_into_table_blocks`, exactly as
  ``SuperKeyPrefilter._prefilter_mapped`` wires it.

Identity is exact: survivor pairs in order, ``rows_checked``,
``rows_matched``, ``superkey_checks``, ``short_circuit_hits``, and the
rule-2 abandon flag.  The numpy cases are skipped (not silently degraded)
when numpy is unavailable, so the no-numpy CI entry still proves the
fallback against the reference.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.index import InvertedIndex, group_into_table_blocks
from repro.index.kernels import (
    entry_coverage,
    numpy_available,
    prefilter_block,
    prefilter_table_block,
)

#: ``entry_coverage`` lanes the differential properties run against the
#: reference (the one kernel left with two implementations).
KERNELS = ["fallback"] + (["numpy"] if numpy_available() else [])

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
    """The legacy ``SuperKeyPrefilter._execute_rows`` scan, spelled out.

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


def as_dict(result) -> dict:
    return {
        "surviving": list(result.surviving),
        "rows_checked": result.rows_checked,
        "rows_matched": result.rows_matched,
        "superkey_checks": result.superkey_checks,
        "short_circuit_hits": result.short_circuit_hits,
        "abandoned": result.abandoned,
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


class TestPrefilterBlockDifferential:
    """One implementation: ``prefilter_block`` runs the stdlib kernel under
    every selection, so these are not parametrised over ``KERNELS``."""

    @given(case=block_cases())
    @settings(max_examples=120, deadline=None)
    def test_superkey_mode_matches_reference(self, case):
        result = prefilter_block(
            values=case["values"],
            row_indexes=case["row_indexes"],
            key_map=case["key_map"],
            posting_count=case["posting_count"],
            packed=case["packed"],
            width=case["width"],
            mode="superkey",
            length_shift=case["length_shift"],
            min_joinability=case["min_joinability"],
        )
        assert as_dict(result) == reference_prefilter(mode="superkey", **case)

    @given(case=block_cases())
    @settings(max_examples=60, deadline=None)
    def test_none_mode_matches_reference(self, case):
        result = prefilter_block(
            values=case["values"],
            row_indexes=case["row_indexes"],
            key_map=case["key_map"],
            posting_count=case["posting_count"],
            mode="none",
            min_joinability=case["min_joinability"],
        )
        expected = reference_prefilter(mode="none", **case)
        assert as_dict(result) == expected

    def test_oversize_key_takes_scalar_patch(self):
        # A key wider than the packed slots exercises the per-row
        # arbitrary-precision escape hatch inside the kernel.
        width = 2
        values = ["v0", "v0", "v1"]
        row_indexes = [0, 1, 2]
        packed = (0xFFFF).to_bytes(2, "big") * 3
        key_map = {
            "v0": ((("wide",), 1 << 40), (("narrow",), 0x00FF)),
            "v1": ((("narrow",), 0x0F00),),
        }
        case = dict(
            values=values,
            row_indexes=row_indexes,
            packed=packed,
            width=width,
            key_map=key_map,
            posting_count=3,
            length_shift=8,
            min_joinability=None,
        )
        result = prefilter_block(mode="superkey", **case)
        assert as_dict(result) == reference_prefilter(mode="superkey", **case)

    def test_empty_block(self):
        result = prefilter_block(
            kernel="numpy",  # still in the public signature: accepted, ignored
            values=[],
            row_indexes=[],
            key_map={"v0": ((("k",), 1),)},
            posting_count=0,
            packed=b"",
            width=4,
            mode="superkey",
        )
        assert as_dict(result) == {
            "surviving": [],
            "rows_checked": 0,
            "rows_matched": 0,
            "superkey_checks": 0,
            "short_circuit_hits": 0,
            "abandoned": False,
        }


@pytest.mark.parametrize("kernel", KERNELS)
class TestEntryCoverageDifferential:
    @given(case=block_cases())
    @settings(max_examples=80, deadline=None)
    def test_coverage_bitmaps_match_per_row_tests(self, kernel, case):
        packed, width = case["packed"], case["width"]
        n = case["posting_count"]
        length_shift = case["length_shift"]
        track_sc = length_shift is not None and length_shift < 8 * width
        for entries in case["key_map"].values():
            for _key_tuple, key in entries:
                cov, sc = entry_coverage(packed, width, key, length_shift, kernel)
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

    def test_rejects_misaligned_buffer(self, kernel):
        with pytest.raises(ValueError):
            entry_coverage(b"\x00\x00\x00", 2, 1, None, kernel)


# ----------------------------------------------------------------------
# The coverage-splicing path, through a real columnar index — exactly the
# wiring of ``SuperKeyPrefilter._prefilter_mapped``.
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


def spliced_keys(table_block) -> tuple[bytes, int]:
    """The table block's packed super-key column and its key width, spliced
    from the fetch blocks its runs came from."""
    (width,) = {source.key_width for source, *_ in table_block.cov_sources}
    packed = b"".join(
        bytes(source.super_key_bytes[start * width : (start + count) * width])
        for source, start, _, count in table_block.cov_sources
    )
    return packed, width


@pytest.mark.parametrize("kernel", KERNELS)
class TestMappedSpliceDifferential:
    @given(case=index_cases())
    @settings(max_examples=60, deadline=None)
    def test_spliced_coverage_matches_reference(self, kernel, case):
        hash_size, postings, key_map, length_shift, bound = case
        index = InvertedIndex(hash_size=hash_size, layout="columnar")
        for value, table_id, row_index, key in postings:
            index.add_posting(value, table_id, 0, row_index)
            index.set_super_key(table_id, row_index, key)
        blocks = index.fetch_batch(VALUES)
        grouped = group_into_table_blocks(blocks)
        assert sum(len(block) for block in grouped.values()) == len(postings)
        for table_block in grouped.values():
            assert table_block.cov_sources is not None
            # Replicate SuperKeyPrefilter._prefilter_mapped verbatim.
            run_cov = []
            for source, fetch_start, table_start, count in table_block.cov_sources:
                entries = key_map.get(source.value, ())
                if not entries:
                    continue
                per_level = source.query_coverage(entries, length_shift, kernel)
                run_cov.append(
                    (table_start, fetch_start, count, entries, per_level)
                )
            result = prefilter_table_block(
                row_indexes=table_block.row_indexes,
                run_cov=run_cov,
                posting_count=len(table_block),
                min_joinability=bound,
            )
            packed, width = spliced_keys(table_block)
            expected = reference_prefilter(
                values=table_block.values,
                row_indexes=table_block.row_indexes,
                packed=packed,
                width=width,
                key_map=key_map,
                posting_count=len(table_block),
                mode="superkey",
                length_shift=length_shift,
                min_joinability=bound,
            )
            assert as_dict(result) == expected

    @given(case=index_cases())
    @settings(max_examples=40, deadline=None)
    def test_spliced_and_block_kernels_agree(self, kernel, case):
        hash_size, postings, key_map, length_shift, bound = case
        index = InvertedIndex(hash_size=hash_size, layout="columnar")
        for value, table_id, row_index, key in postings:
            index.add_posting(value, table_id, 0, row_index)
            index.set_super_key(table_id, row_index, key)
        grouped = group_into_table_blocks(index.fetch_batch(VALUES))
        for table_block in grouped.values():
            run_cov = []
            for source, fetch_start, table_start, count in table_block.cov_sources:
                entries = key_map.get(source.value, ())
                if not entries:
                    continue
                per_level = source.query_coverage(entries, length_shift, kernel)
                run_cov.append(
                    (table_start, fetch_start, count, entries, per_level)
                )
            spliced = prefilter_table_block(
                row_indexes=table_block.row_indexes,
                run_cov=run_cov,
                posting_count=len(table_block),
                min_joinability=bound,
            )
            packed, width = spliced_keys(table_block)
            whole = prefilter_block(
                values=table_block.values,
                row_indexes=table_block.row_indexes,
                key_map=key_map,
                posting_count=len(table_block),
                value_runs=table_block.value_runs,
                packed=packed,
                width=width,
                mode="superkey",
                length_shift=length_shift,
                min_joinability=bound,
            )
            assert as_dict(spliced) == as_dict(whole)


@pytest.mark.skipif(len(KERNELS) < 2, reason="numpy not installed")
class TestKernelCrossAgreement:
    """The two lanes of ``entry_coverage`` — the one kernel with two
    implementations left: ``prefilter_block`` runs the stdlib kernel under
    either selection."""

    @given(case=block_cases())
    @settings(max_examples=60, deadline=None)
    def test_numpy_and_fallback_agree(self, case):
        for entries in case["key_map"].values():
            for _key_tuple, key in entries:
                assert entry_coverage(
                    case["packed"], case["width"], key, case["length_shift"], "numpy"
                ) == entry_coverage(
                    case["packed"], case["width"], key, case["length_shift"],
                    "fallback",
                )
