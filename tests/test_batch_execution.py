"""Batch execution: request-level arrays + the request verification pass.

A request is served from :mod:`repro.index.batch` (one array pass groups and
prefilters every candidate table; one more verifies the surviving pairs of
every candidate table with :func:`repro.core.joinability.verify_request`
against the postings of the request's key values; the top-k stage replays the candidates on
their rule-2 thresholds and scores, and the counters are charged where the
rules cut).  Everything here is differential: against
``tests.helpers.legacy_verify_table`` / ``legacy_discover`` (the verbatim
loops), and against a freshly built engine after mutations.  There is one
execution path, so every end-to-end comparison runs the engine against the
verbatim loop, for every row filter.
"""

from __future__ import annotations

import copy
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import MateConfig, MateDiscovery, build_index
from repro.api import PlannerOptions
from repro.api.request import RequestBudget
from repro.core import joinability
from repro.core.column_selection import complete_key_tuples, probe_values
from repro.core.topk import TopKHeap
from repro.datagen import build_workload
from repro.datamodel import MISSING, QueryTable, Table, TableCorpus
from repro.hashing.base import key_width
from repro.index import InvertedIndex
from repro.index import columnar
from repro.index import batch
from repro.index.batch import (
    RequestArrays,
    read_key_postings,
    request_keys,
    verify_spans,
)
from repro.ingest import LiveIndex
from repro.metrics import DiscoveryCounters
from repro.plan import PlanContext, PlanReport, Planner
from repro.plan.executor import Executor
from repro.sketch import SketchOptions
from repro.storage import load_segment, write_segment

from tests.helpers import (
    BUILD_LANES,
    CellIndex,
    assert_matches_legacy,
    assert_results_byte_identical,
    block_items,
    build_in_lane,
    fetch_grouped_by_table,
    legacy_discover,
    legacy_verify_table,
    replace_table,
    stage_volumes,
    visible_corpus,
    with_cell,
    with_column,
    with_row,
    without_column,
    without_row,
)
from tests.test_kernels import VALUES, index_cases, reference_prefilter

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=50_000)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=11, num_queries=2, corpus_scale=0.2)


@pytest.fixture(scope="module")
def engine(workload):
    return MateDiscovery(
        workload.corpus, build_index(workload.corpus, config=CONFIG), config=CONFIG
    )


def test_a_freshly_built_index_takes_the_batch_path(workload):
    """The bulk build's index serves packed key buffers, and a discover over
    it answers what a discover over the per-cell reference's index
    answers."""
    by_lane = {}
    for lane in BUILD_LANES:
        index = build_in_lane(lane, workload.corpus, config=CONFIG)
        engine = MateDiscovery(workload.corpus, index, config=CONFIG)
        by_lane[lane] = engine.discover(workload.queries[0])
        assert by_lane[lane].plan.verified_pairs > 0
    assert type(index) is InvertedIndex
    assert_results_byte_identical(by_lane["block"], by_lane["loop"])
    assert stage_volumes(by_lane["block"]) == stage_volumes(by_lane["loop"])


# ----------------------------------------------------------------------
# (a) The request kernel against the verbatim per-pair loop
# ----------------------------------------------------------------------
#: Few values so rows hold a key value in several columns, key tuples repeat
#: a value, and ``MISSING`` turns up in rows and keys; "zz" is in no row.
CELLS = st.sampled_from(["a", "b", "c", MISSING])
KEY_VALUES = st.sampled_from(["a", "b", "c", "zz", MISSING])


@st.composite
def request_cases(draw):
    """Key tuples plus 1-5 tables of 1-6 columns, each with its surviving
    pairs; a table that is not ``listed`` stands for one the sketch tier
    pruned: its pairs sit in the request's arrays but are not verified."""
    width = draw(st.integers(min_value=1, max_value=4))
    key_tuples = draw(
        st.lists(
            st.tuples(*[KEY_VALUES] * width), min_size=1, max_size=5, unique=True
        )
    )
    tables = []
    for table_id in range(draw(st.integers(min_value=1, max_value=5))):
        num_columns = draw(st.integers(min_value=1, max_value=6))
        rows = draw(
            st.lists(
                st.lists(CELLS, min_size=num_columns, max_size=num_columns),
                min_size=1,
                max_size=6,
            )
        )
        pairs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(rows) - 1),
                    st.integers(min_value=0, max_value=len(key_tuples) - 1),
                ),
                min_size=1,
                max_size=12,
            )
        )
        table = Table(
            table_id=10 + table_id,
            name=f"t{table_id}",
            columns=[f"c{i}" for i in range(num_columns)],
            rows=rows,
        )
        tables.append((table, pairs, draw(st.booleans())))
    return key_tuples, tables


def verify_case(key_tuples, tables):
    """Lay the tables' pairs end to end and verify the listed ones in one
    pass, against an index over all of the tables; returns the charge prefix
    sums and, per table id, its first pair and (listed tables only) its
    ``(score, mapping)``."""
    corpus = TableCorpus(name="case")
    for table, _pairs, _listed in tables:
        corpus.add_table(table)
    index = build_index(corpus, config=CONFIG)
    block = index.block
    ordinal_of = {
        row: ordinal
        for ordinal, row in enumerate(
            zip(block.row_table_ids.tolist(), block.row_row_indexes.tolist())
        )
    }
    pair_rows, pair_keys, listed, firsts, starts = [], [], [], [], {}
    for table, pairs, verified in tables:
        starts[table.table_id] = len(pair_rows)
        if verified:
            listed.append(table)
            firsts.append(len(pair_rows))
        pair_rows += [ordinal_of[table.table_id, row] for row, _ in pairs]
        pair_keys += [key for _, key in pairs]
    firsts_array = np.array(firsts, dtype=np.int64)
    lengths = [len(pairs) for _, pairs, verified in tables if verified]
    values, key_ids = request_keys(key_tuples)
    prefix, best, scores, mappings = verify_spans(
        np.array([table.num_columns for table in listed], dtype=np.int64),
        firsts_array,
        firsts_array + np.array(lengths, dtype=np.int64),
        np.array(pair_rows, dtype=np.int64),
        np.array(pair_keys, dtype=np.intp),
        key_ids,
        read_key_postings(index, values),
    )
    answers = dict.fromkeys(range(len(listed)), (0, None))
    answers.update(zip(best.tolist(), zip(scores.tolist(), mappings)))
    verdicts = {table_id: (first, None) for table_id, first in starts.items()}
    verdicts.update(
        (table.table_id, (first, answers[position]))
        for position, (table, first) in enumerate(zip(listed, firsts))
    )
    return prefix, verdicts


def charged(prefix, first, count):
    """What verifying ``count`` pairs from pair ``first`` charges: value
    comparisons, rows seen, verified pairs, rows that verify."""
    return (prefix[first + count] - prefix[first]).tolist()


class TestRequestKernelDifferential:
    @given(case=request_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_pair_loop_at_every_cut(self, case):
        """Every listed table: its score and mapping are the loop's over all
        of its pairs, and every prefix of its pairs is charged what the loop
        charges for that prefix."""
        key_tuples, tables = case
        prefix, verdicts = verify_case(key_tuples, tables)
        assert prefix[-1, 0] == sum(
            len(table.columns) * len(key_tuples[0]) * len(pairs)
            for table, pairs, verified in tables
            if verified
        )
        for table, pairs, verified in tables:
            first, answer = verdicts[table.table_id]
            if not verified:  # never matched, never charged
                assert charged(prefix, first, len(pairs)) == [0, 0, 0, 0]
                continue
            assert answer == legacy_verify_table(
                table.rows, [(row, key_tuples[key]) for row, key in pairs]
            )[:2]
            for cut in range(len(pairs) + 1):
                expected = legacy_verify_table(
                    table.rows, [(row, key_tuples[key]) for row, key in pairs[:cut]]
                )[2:]
                comparisons, rows, checked, hit_rows = charged(prefix, first, cut)
                assert (checked, hit_rows, rows - hit_rows, comparisons) == expected

    def one_table(self, table, key_tuples, pairs):
        prefix, verdicts = verify_case(key_tuples, [(table, pairs, True)])
        _, answer = verdicts[table.table_id]
        return answer, charged(prefix, 0, len(pairs))

    def test_ties_go_to_the_largest_mapping(self):
        table = Table(0, "t", ["x", "y", "z"], rows=[["a", "a", "b"]])
        answer, (_, _, checked, _) = self.one_table(table, [("a", "b")], [(0, 0)])
        assert (answer, checked) == ((1, (1, 2)), 1)

    def test_repeated_key_value_needs_two_columns(self):
        table = Table(0, "t", ["x", "y"], rows=[["a", "b"], ["a", "a"]])
        answer, (_, rows, checked, hit_rows) = self.one_table(
            table, [("a", "a")], [(0, 0), (1, 0)]
        )
        assert (answer, checked) == ((1, (1, 0)), 1)
        assert (hit_rows, rows - hit_rows) == (1, 1)

    def test_codes_that_could_overflow_are_renumbered(self, monkeypatch):
        """40 columns ** 12 key positions do not fit ``int64`` as one
        mixed-radix code: the code is renumbered densely on the way, and the
        request is still verified in its one pass, with the loop's answer."""
        columns = [f"c{i}" for i in range(40)]
        values = [f"v{i}" for i in range(40)]
        table = Table(0, "t", columns, rows=[values])
        _, verdicts = verify_case([tuple(values[:12])], [(table, [(0, 0)], True)])
        assert verdicts[0] == (0, (1, tuple(range(12))))
        # Reversed, the mapping's own mixed-radix code exceeds int64.
        mirrored = Table(1, "m", columns, rows=[values[::-1]])
        _, verdicts = verify_case([tuple(values[:12])], [(mirrored, [(0, 0)], True)])
        assert verdicts[1] == (0, (1, tuple(range(39, 27, -1))))
        corpus = TableCorpus(name="wide")
        corpus.add_table(table)
        engine = MateDiscovery(
            corpus, build_index(corpus, config=CONFIG), config=CONFIG
        )
        query = QueryTable(Table(9, "q", columns[:12], [values[:12]]), columns[:12])
        monkeypatch.setattr(
            joinability,
            "verify_table",
            lambda *args: pytest.fail("verified table by table"),
        )
        result = engine.discover(query)
        assert result.plan.verified_pairs == 1
        assert answer(result) == [(0, 1, tuple(range(12)))]
        assert_results_byte_identical(result, legacy_discover(engine, query))

    @given(case=request_cases())
    @settings(max_examples=150, deadline=None)
    def test_renumbered_codes_match_the_per_pair_loop(self, case):
        """A code limit this low renumbers before every digit: the scores
        and mappings are still the loop's (largest mapping on ties)."""
        key_tuples, tables = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(joinability, "_CODE_LIMIT", 2)
            _, verdicts = verify_case(key_tuples, tables)
        for table, pairs, verified in tables:
            if verified:
                assert verdicts[table.table_id][1] == legacy_verify_table(
                    table.rows, [(row, key_tuples[key]) for row, key in pairs]
                )[:2]


# ----------------------------------------------------------------------
# (b) The request-level prefilter
# ----------------------------------------------------------------------
def one_value_index(super_keys: list[int]) -> InvertedIndex:
    """Table 0 holding value "v" once per row, with the given row super keys."""
    cells = CellIndex(hash_size=16)
    for row_index, super_key in enumerate(super_keys):
        cells.add_posting("v", 0, 0, row_index)
        cells.keys[(0, row_index)] = super_key
    return cells.to_index()


def candidate_spans(arrays: RequestArrays) -> list[tuple[int, range]]:
    """``(table id, span)`` per candidate, in candidate order."""
    return list(
        zip(
            arrays.candidate_ids.tolist(),
            map(
                range,
                arrays.candidate_starts.tolist(),
                arrays.candidate_stops.tolist(),
            ),
        )
    )


def scanned(arrays: RequestArrays, start: int, end: int) -> dict:
    """What scanning positions ``[start, end)`` charges, keyed like
    ``reference_prefilter``'s answer."""
    _, checks, hits, first = arrays.prefix[start].tolist()
    _, checks_end, hits_end, last = arrays.prefix[end].tolist()
    row_indexes = np.asarray(arrays.reader.block.row_row_indexes)
    return {
        "surviving": list(
            zip(
                row_indexes[arrays.pair_rows[first:last]].tolist(),
                map(arrays.key_tuples.__getitem__, arrays.pair_keys[first:last]),
            )
        ),
        "rows_checked": end - start,
        "superkey_checks": checks_end - checks,
        "short_circuit_hits": hits_end - hits,
    }


def prefiltered_case(case, mode):
    """The case's postings as request arrays, prefiltered, and a per-row
    reference scan of any candidate at any floor."""
    hash_size, postings, key_map, length_shift, _ = case
    cells = CellIndex(hash_size=hash_size)
    for value, table_id, row_index, key in postings:
        cells.add_posting(value, table_id, 0, row_index)
        cells.keys[(table_id, row_index)] = key
    index = cells.to_index()
    arrays = RequestArrays(
        index.fetch_batch(VALUES), key_map, length_shift, mode, reader=index
    )
    arrays.prefilter()
    grouped = fetch_grouped_by_table(index, VALUES)
    width = key_width(hash_size)

    def reference(table_id, floor):
        values, row_indexes, super_keys = zip(*grouped[table_id])
        return reference_prefilter(
            values=values,
            row_indexes=row_indexes,
            packed=b"".join(key.to_bytes(width, "big") for key in super_keys),
            width=width,
            key_map=key_map,
            posting_count=len(values),
            mode=mode,
            length_shift=length_shift,
            min_joinability=floor,
        )

    return arrays, grouped, reference


class TestRequestArrays:
    @pytest.mark.parametrize("mode", ["superkey", "none"])
    @given(case=index_cases())
    @settings(max_examples=120, deadline=None)
    def test_cut_matches_the_per_row_reference(self, mode, case):
        """Same postings: the arrays, cut where the threshold says, vs the
        per-row scan of each table block at the case's floor."""
        arrays, grouped, reference = prefiltered_case(case, mode)
        floor = case[4]
        assert [
            (table_id, len(span)) for table_id, span in candidate_spans(arrays)
        ] == sorted(
            ((table_id, len(block)) for table_id, block in grouped.items()),
            key=lambda entry: (-entry[1], entry[0]),
        )
        for position, (table_id, span) in enumerate(candidate_spans(arrays)):
            expected = reference(table_id, floor)
            del expected["rows_matched"]
            if floor is not None and len(span) <= floor:
                # Rule 1's case: the executor never scans the table.
                assert expected["rows_checked"] == 0
                continue
            abandoned = floor is not None and floor >= arrays.thresholds[position]
            end = span.stop
            if abandoned:
                [end] = arrays.cut_ends(np.array([position]), np.array([floor]))
            assert {
                **scanned(arrays, span.start, int(end)),
                "abandoned": abandoned,
            } == expected

    @pytest.mark.parametrize("mode", ["superkey", "none"])
    @given(case=index_cases())
    @settings(max_examples=120, deadline=None)
    def test_threshold_decides_rule_2_at_every_floor(self, mode, case):
        """For every candidate and every ``j_k`` in ``[0, L)``: ``j_k >= T``
        exactly when the per-row reference abandons, and the vector cut —
        every abandon of the request in one call — ends where the
        reference stops."""
        arrays, _, reference = prefiltered_case(case, mode)
        positions, floors, stops = [], [], []
        for position, (table_id, span) in enumerate(candidate_spans(arrays)):
            for floor in range(len(span)):
                expected = reference(table_id, floor)
                fires = floor >= arrays.thresholds[position]
                assert fires == expected["abandoned"]
                if fires:
                    positions.append(position)
                    floors.append(floor)
                    stops.append(span.start + expected["rows_checked"])
        ends = arrays.cut_ends(
            np.array(positions, dtype=np.intp), np.array(floors, dtype=np.intp)
        )
        assert ends.tolist() == stops

    def test_cut_off_on_the_last_row_is_not_an_abandon(self):
        """Rule 2 is asked *before* each row, never after the last one."""
        # Key 1 is covered by super key 1, not by 0: rows match, miss, match,
        # miss.  L = 4 with one miss among the first three rows: T = 3.
        index = one_value_index([1, 0, 1, 0])
        arrays = RequestArrays(
            index.fetch_batch(["v"]), {"v": [(("k",), 1)]}, None, reader=index
        )
        arrays.prefilter()
        [(table_id, span)] = candidate_spans(arrays)
        assert (table_id, span, arrays.thresholds.tolist()) == (0, range(4), [3])
        # With j_k = 2 the second miss — the last row — exhausts the
        # deficit, but no row is left to skip: the whole table is scanned.
        assert scanned(arrays, 0, 4) == {
            "surviving": [(0, ("k",)), (2, ("k",))],
            "rows_checked": 4,
            "superkey_checks": 4,
            "short_circuit_hits": 0,
        }
        # One more unit of j_k and the first miss already decides it: the
        # scan stops in front of row 2.
        assert arrays.cut_ends(np.array([0]), np.array([3])).tolist() == [2]
        assert scanned(arrays, 0, 2)["surviving"] == [(0, ("k",))]

    def test_sort_is_stable_across_probe_values(self):
        """Table order is probe order, then posting order (the loop's)."""
        cells = CellIndex(hash_size=16)
        for value, table_id, row_index in [
            ("w", 1, 5), ("v", 1, 9), ("w", 0, 2), ("v", 1, 3), ("v", 0, 7),
        ]:
            cells.add_posting(value, table_id, 0, row_index)
            cells.keys[(table_id, row_index)] = 0
        index = cells.to_index()
        arrays = RequestArrays(index.fetch_batch(["v", "w"]), {}, None)
        grouped = fetch_grouped_by_table(index, ["v", "w"])
        row_indexes = np.asarray(index.block.row_row_indexes)[arrays.ordinals]
        assert row_indexes.tolist() == [7, 2, 9, 3, 5]
        for table_id, span in candidate_spans(arrays):
            assert row_indexes[span.start : span.stop].tolist() == [
                row_index for _, row_index, _ in grouped[table_id]
            ]
        allowed = RequestArrays(index.fetch_batch(["v", "w"]), {}, None, allowed={0})
        assert allowed.candidate_ids.tolist() == [0]

    def test_no_postings_no_candidates(self):
        arrays = RequestArrays([], {}, None)
        assert candidate_spans(arrays) == []
        arrays.prefilter()
        arrays.verify()
        counters = DiscoveryCounters()
        assert arrays.charge(0, [], [], counters) == (0, 0, 0)
        assert counters == DiscoveryCounters()


def shared_seed_query(workload) -> QueryTable:
    """A query whose seed values map to several key entries each."""
    source = workload.queries[0]
    first, second = source.key_columns[:2]
    table = source.table
    a, b = table.column_index(first), table.column_index(second)
    rows = [[row[a], row[b]] for row in table.rows]
    # Every seed value once more, with another row's partner: two key
    # tuples share each seed value whichever column seeds the run.
    rows += [[row[0], other[1]] for row, other in zip(rows, rows[1:] + rows[:1])]
    return QueryTable(
        table=Table(table_id=990, name="q2", columns=[first, second], rows=rows),
        key_columns=[first, second],
    )


class TestDiscoverDifferential:
    def test_matches_the_legacy_loop(self, engine, workload):
        for query in workload.queries:
            result = engine.discover(query)
            assert_results_byte_identical(result, legacy_discover(engine, query))
            assert_matches_legacy(engine, query)

    @pytest.mark.parametrize("row_filter_mode", ["superkey", "none"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_small_k_where_rule_2_fires_most(self, workload, row_filter_mode, k):
        system = MateDiscovery(
            workload.corpus,
            build_index(workload.corpus, config=CONFIG),
            config=CONFIG,
            row_filter_mode=row_filter_mode,
        )
        pruned = 0
        for query in workload.queries:
            result = assert_matches_legacy(system, query, k=k)
            pruned += result.counters.tables_pruned_by_rule2
        assert pruned or row_filter_mode == "none"

    def test_values_mapping_to_several_key_entries(self, engine, workload):
        query = shared_seed_query(workload)
        result = assert_matches_legacy(engine, query)
        key_map = engine._build_key_super_key_map(query, result.plan.plan.seed.column)
        assert max(len(entries) for entries in key_map.values()) > 1

    @pytest.mark.parametrize("limit", [0, 1, 3])
    def test_fetch_budget(self, engine, workload, limit):
        query = workload.queries[0]
        result = assert_matches_legacy(
            engine,
            query,
            make_kwargs=lambda: {"budget": RequestBudget(max_pl_fetches=limit)},
        )
        assert not result.complete

    def test_deadline_that_expires_mid_loop(self, engine, workload, monkeypatch):
        query = workload.queries[0]
        now = [0.0]
        update = TopKHeap.update

        def update_then_expire(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                now[0] = 2.0  # expire after the first accepted table
            return kept

        def make_kwargs():
            now[0] = 0.0
            return {
                "budget": RequestBudget(deadline_seconds=1.0, clock=lambda: now[0])
            }

        monkeypatch.setattr(TopKHeap, "update", update_then_expire)
        result = assert_matches_legacy(engine, query, make_kwargs=make_kwargs)
        assert not result.complete and result.counters.deadline_expired
        assert result.counters.tables_evaluated == 1

    def test_deadline_expired_by_the_fetch_skips_the_prefilter(
        self, engine, workload, monkeypatch
    ):
        """The whole-request prefilter and verification run behind the
        deadline check in front of the first candidate table: a request
        already late after its fetch pays for neither — nor reads a key
        value's postings."""
        query = workload.queries[0]

        def make_kwargs():
            reads = iter([0.0, 0.0])  # the ledger's start, the pre-fetch check

            return {
                "budget": RequestBudget(
                    deadline_seconds=1.0, clock=lambda: next(reads, 2.0)
                )
            }

        monkeypatch.setattr(
            RequestArrays,
            "prefilter",
            lambda self: pytest.fail("prefiltered past the deadline"),
        )
        monkeypatch.setattr(
            RequestArrays,
            "verify",
            lambda self: pytest.fail("verified past the deadline"),
        )
        monkeypatch.setattr(
            InvertedIndex,
            "row_postings",
            lambda self, values: pytest.fail("read postings past the deadline"),
        )
        result = assert_matches_legacy(engine, query, make_kwargs=make_kwargs)
        assert result.counters.deadline_expired
        assert result.counters.candidate_tables > 0
        assert result.counters.tables_evaluated == 0
        assert (result.plan.verified_pairs, result.plan.discarded_pairs) == (0, 0)

    def test_deadline_clock_reads_and_cut_match_the_loop(self, engine, workload):
        """A scripted clock expires the deadline at its ``n``-th read (the
        first is the ledger's start), for every ``n`` until a run completes:
        the executor reads the clock as often as the verbatim loop and stops
        at the same table, and when the read in front of the first
        candidate expires, neither pass runs."""
        query = workload.queries[0]

        def scripted(expire_at):
            reads = []

            def clock():
                reads.append(None)
                return 2.0 if len(reads) >= expire_at else 0.0

            return reads, RequestBudget(deadline_seconds=1.0, clock=clock)

        cuts = []
        for expire_at in range(2, 1000):
            reads, budget = scripted(expire_at)
            result = engine.discover(query, k=3, budget=budget)
            oracle_reads, oracle_budget = scripted(expire_at)
            oracle = legacy_discover(engine, query, 3, budget=oracle_budget)
            assert_results_byte_identical(result, oracle)
            assert len(reads) == len(oracle_reads)
            if result.complete:
                break
            counters = result.counters
            cuts.append((counters.candidate_tables > 0, counters.tables_evaluated))
            if cuts[-1] == (True, 0):
                assert "superkey_prefilter" not in counters.stages
                assert "row_verification" not in counters.stages
        else:
            pytest.fail("the deadline never stopped expiring")
        # Before the fetch, before the first table, after it, and later.
        assert cuts[:3] == [(False, 0), (True, 0), (True, 1)]
        assert len(cuts) > 3

    @pytest.mark.parametrize("row_filter_mode", ["superkey", "none", "oracle"])
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_snapshot_sequence_matches_the_loop(
        self, workload, row_filter_mode, k, monkeypatch
    ):
        """The top-k after every accepted heap update follows the loop's
        sequence, under every row filter and ``k``."""
        system = MateDiscovery(
            workload.corpus,
            build_index(workload.corpus, config=CONFIG),
            config=CONFIG,
            row_filter_mode=row_filter_mode,
        )
        snapshots: list[list] = []
        update = TopKHeap.update

        def update_and_record(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                snapshots.append(heap.result_tuples())
            return kept

        monkeypatch.setattr(TopKHeap, "update", update_and_record)
        for query in [*workload.queries, shared_seed_query(workload)]:
            snapshots.clear()
            result = system.discover(query, k=k)
            seen = list(snapshots)
            snapshots.clear()
            legacy_discover(system, query, k)
            assert seen == snapshots
            assert seen[-1] == result.result_tuples()

    def test_sketch_tier_restricts_the_candidates(self, engine, workload, monkeypatch):
        """A table the sketch tier pruned is never matched nor verified."""
        query = workload.queries[0]
        exhaustive = engine.discover(query)
        gathered: list[int] = []
        verify = batch.verify_spans

        def recorded(widths, *args):
            gathered.append(len(widths))
            return verify(widths, *args)

        monkeypatch.setattr(batch, "verify_spans", recorded)
        result = engine.discover(
            query,
            planner=PlannerOptions(mode="sketch"),
            sketch=SketchOptions(max_candidates=2),
        )
        monkeypatch.undo()
        # The sketch tier's verdict, as its stage asks for it.
        position = query.key_columns.index(result.plan.plan.seed.column)
        values = set(probe_values(complete_key_tuples(query), position))
        allowed = {
            table_id
            for table_id, _ in engine.sketch_index().query(values, max_candidates=2)
        }
        assert_matches_legacy(
            engine,
            query,
            allowed_tables=allowed,
            planner=PlannerOptions(mode="sketch"),
            sketch=SketchOptions(max_candidates=2),
        )
        assert result.counters.candidate_tables <= 2
        assert result.counters.candidate_tables < exhaustive.counters.candidate_tables
        [tables] = gathered  # the batch run's one pass, over this many tables
        assert 0 < tables <= result.counters.candidate_tables
        assert 0 < result.plan.verified_pairs < exhaustive.plan.verified_pairs

    def test_live_index_with_tombstones_and_merged_blocks(self, workload):
        tables = list(workload.corpus)
        live = LiveIndex(config=CONFIG)
        corpus = TableCorpus(name="live")
        for position, table in enumerate(tables):
            corpus.add_table(table)
            live.add_table(table)
            if position in (len(tables) // 3, 2 * len(tables) // 3):
                live.seal()  # two segments + the write buffer
        engine = MateDiscovery(corpus, live, config=CONFIG)
        query = workload.queries[0]
        before = engine.discover(query)
        # Tombstone a sealed table that was in the answer.
        victim = before.tables[0].table_id
        live.remove_table(victim)
        values = list(
            engine._build_key_super_key_map(query, engine.column_selector(query, live))
        )
        components = live.snapshot()._components
        assert any(
            sum(index.posting_lengths([value])[0] > 0 for index, _, _ in components) > 1
            for value in values
        ), "no probe value spans components: the merged-block case is not covered"
        result = assert_matches_legacy(engine, query)
        assert victim not in [entry.table_id for entry in result.tables]

    def test_mmap_segment(self, workload, tmp_path):
        index = build_index(workload.corpus, config=CONFIG)
        path = write_segment(index, tmp_path / "corpus.seg", fsync=False)
        mapped = load_segment(path)
        try:
            engine = MateDiscovery(workload.corpus, mapped, config=CONFIG)
            for query in workload.queries:
                assert_matches_legacy(engine, query)
        finally:
            mapped.close()


class TestRule2Replay:
    @pytest.mark.parametrize("row_filter_mode", ["superkey", "none", "oracle"])
    def test_every_abandoned_prefix_scores_below_j_k(
        self, workload, row_filter_mode, monkeypatch
    ):
        """The replay does not offer a table rule 2 cut short to the heap.
        That is exact because the prefix the loop would have verified scores
        below ``j_k``, which the full heap rejects: checked here for every
        abandon of MATE and SCR (whose every posting matches, so rule 2
        never fires for it) and of the ideal filter."""
        system = MateDiscovery(
            workload.corpus,
            build_index(workload.corpus, config=CONFIG),
            config=CONFIG,
            row_filter_mode=row_filter_mode,
        )
        charge = RequestArrays.charge
        abandons = []

        def checked(arrays, evaluated, cut, floors, counters):
            ends = arrays.cut_ends(
                np.array(cut, dtype=np.intp), np.array(floors, dtype=np.intp)
            )
            for position, j_k, end in zip(cut, floors, ends.tolist()):
                start = int(arrays.candidate_starts[position])
                table_id = int(arrays.candidate_ids[position])
                prefix = scanned(arrays, start, end)["surviving"]
                rows = system.corpus.get_table(table_id).rows
                score = legacy_verify_table(rows, prefix)[0]
                assert score < j_k
                abandons.append(score)
            return charge(arrays, evaluated, cut, floors, counters)

        monkeypatch.setattr(RequestArrays, "charge", checked)
        for k in (1, 2, 3, 10):
            for query in [*workload.queries, shared_seed_query(workload)]:
                system.discover(query, k=k)
        assert bool(abandons) == (row_filter_mode != "none")

    def test_a_cut_table_is_not_offered_even_when_its_full_score_ties(self):
        """k = 1, ideal filter.  Table 5 (5 postings, 3 matches) fills the
        heap with j_k = 3.  Table 1 (4 postings) opens with a miss, so rule
        2 cuts it in front of its second row — yet all of its rows would
        score 3, a tie the smaller id wins on the heap.  The loop never
        verified those rows; the replay must not offer them either."""
        columns = ["name", "team"]
        corpus = TableCorpus(name="tie")
        corpus.add_table(
            Table(5, "t5", columns, [["ada", "red"], ["alan", "red"],
                                     ["grace", "red"], ["x1", "red"],
                                     ["x2", "red"]])
        )
        corpus.add_table(
            Table(1, "t1", columns, [["zed", "red"], ["ada", "red"],
                                     ["alan", "red"], ["grace", "red"]])
        )
        query = QueryTable(
            Table(99, "q", ["n", "t"],
                  [["ada", "red"], ["alan", "red"], ["grace", "red"]]),
            ["n", "t"],
        )
        engine = MateDiscovery(
            corpus,
            build_index(corpus, config=CONFIG),
            config=CONFIG,
            row_filter_mode="oracle",
        )
        result = assert_matches_legacy(engine, query, k=1)
        assert result.plan.plan.seed.column == "t"
        assert result.result_tuples() == [(5, 3)]
        assert result.counters.tables_pruned_by_rule2 == 1
        assert engine.discover(query, k=2).result_tuples() == [(1, 3), (5, 3)]

    def test_pairs_discarded_by_rule_1_and_rule_2(self):
        """k = 1.  Table 0 (5 postings, 3 pairs) fills the heap with j_k = 3;
        table 1 (5 postings, 3 pairs) opens with two rows the super key
        rejects, so rule 2 cuts it in front of its first pair; table 2
        (3 postings, 3 pairs) cannot beat j_k and rule 1 prunes it.  The one
        pass verified all 9 pairs, the replay charged table 0's 3."""
        columns = ["name", "team"]
        corpus = TableCorpus(name="filters")
        for table_id, rows in enumerate(
            [
                [["ada", "red"], ["alan", "red"], ["grace", "red"],
                 ["x1", "blue"], ["x2", "blue"]],
                [["zed", "red"], ["yan", "red"], ["ada", "red"],
                 ["alan", "red"], ["grace", "red"]],
                [["ada", "red"], ["alan", "red"], ["kurt", "blue"]],
            ]
        ):
            corpus.add_table(Table(table_id, f"t{table_id}", columns, rows))
        query = QueryTable(
            Table(
                99,
                "q",
                ["n", "t"],
                [["ada", "red"], ["alan", "red"], ["grace", "red"], ["kurt", "blue"]],
            ),
            ["n", "t"],
        )
        engine = MateDiscovery(
            corpus, build_index(corpus, config=CONFIG), config=CONFIG
        )
        result = assert_matches_legacy(engine, query, k=1)
        assert result.plan.plan.seed.column == "t"
        assert result.result_tuples() == [(0, 3)]
        counters = result.counters
        assert (counters.tables_pruned_by_rule1, counters.tables_pruned_by_rule2) == (
            1,
            1,
        )
        assert (result.plan.verified_pairs, result.plan.discarded_pairs) == (9, 6)
        document = result.plan.as_dict()
        assert (document["verified_pairs"], document["discarded_pairs"]) == (9, 6)
        assert stage_volumes(result)["row_verification"] == (1, 3, 3)


@pytest.fixture(scope="module", params=["WT_100", "OD_100"])
def corpus_workload(request):
    """A web-table and an open-data workload (wide rows, many columns)."""
    return build_workload(request.param, seed=11, num_queries=3, corpus_scale=0.2)


class TestOracleRowFilter:
    def test_matches_the_legacy_loop(self, corpus_workload):
        """The ideal filter (Figure 5) on the request arrays: its
        containment test is the verification pass's comparison half.
        Answers, mappings and every counter equal the verbatim loop's, at
        every k — rule 2 abandons included."""
        oracle = MateDiscovery(
            corpus_workload.corpus,
            build_index(corpus_workload.corpus, config=CONFIG),
            config=CONFIG,
            row_filter_mode="oracle",
        )
        abandoned = 0
        for query in corpus_workload.queries:
            for k in (1, 3, 10):
                result = assert_matches_legacy(oracle, query, k=k)
                counters = result.counters
                assert counters.false_positive_rows == 0
                assert counters.superkey_checks == counters.short_circuit_hits == 0
                abandoned += counters.tables_pruned_by_rule2
        assert abandoned


class TestExecutionPathReport:
    def test_every_row_filter_runs_on_the_arrays(self, workload):
        """MATE, SCR and the ideal filter all answer what the verbatim loop
        answers, and the plan report names no execution path."""
        query = workload.queries[0]
        index = build_index(workload.corpus, config=CONFIG)
        for mode in ("superkey", "none", "oracle"):
            engine = MateDiscovery(
                workload.corpus, index, config=CONFIG, row_filter_mode=mode
            )
            result = assert_matches_legacy(engine, query)
            assert result.plan.verified_pairs > 0
            document = result.plan.as_dict()
            assert "execution_path" not in document
            assert "table_path_reason" not in document

    def test_an_oversize_key_is_refused_by_the_block(self, workload):
        """A key wider than its packed slot cannot be laid out: the block
        constructor names the row and the key's width."""
        index = build_index(workload.corpus, config=CONFIG)
        cells = CellIndex.of(index)
        (table_id, row_index), super_key = next(iter(cells.keys.items()))
        cells.keys[(table_id, row_index)] = super_key | 1 << 300
        with pytest.raises(ValueError) as raised:
            cells.to_block()
        assert f"table {table_id} row {row_index} is 301 bits wide" in str(
            raised.value
        )

    def test_the_old_lane_switches_are_ignored(self):
        """``MATE_KERNEL`` / ``MATE_SKETCH`` select nothing any more: a
        process started with both set runs the one verification pass."""
        script = (
            "from repro import MateDiscovery, PlannerOptions, SketchOptions\n"
            "from repro import QueryTable, Table, TableCorpus, build_index\n"
            "corpus = TableCorpus(name='c')\n"
            "corpus.add_table(Table(0, 't', ['a', 'b'], [['x', 'y'], ['x', 'z']]))\n"
            "query = QueryTable(Table(9, 'q', ['a', 'b'], [['x', 'y']]), ['a', 'b'])\n"
            "engine = MateDiscovery(corpus, build_index(corpus))\n"
            "exact = engine.discover(query)\n"
            "sketched = engine.discover(\n"
            "    query, planner=PlannerOptions(mode='sketch'), sketch=SketchOptions()\n"
            ")\n"
            "assert sketched.result_tuples() == exact.result_tuples()\n"
            "print(exact.plan.verified_pairs, sketched.plan.verified_pairs)\n"
        )
        env = dict(
            os.environ,
            MATE_KERNEL="off",
            MATE_SKETCH="fallback",
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["1", "1"]

    def test_path_is_not_a_counter(self, engine, workload):
        result = engine.discover(workload.queries[0])
        assert "execution_path" not in result.counters.as_dict()
        assert "execution_path" not in result.counters.extra
        assert not hasattr(result.plan, "execution_path")
        assert not hasattr(result.plan, "table_path_reason")


# ----------------------------------------------------------------------
# Satellite: the coverage memo of a cached fetch block is bounded
# ----------------------------------------------------------------------
class TestCoverageMemoBound:
    def test_many_distinct_keys_against_one_block(self):
        index = one_value_index([key % 7 for key in range(40)])
        [block] = index.fetch_batch(["v"])
        bound = columnar.COVERAGE_MEMO_ENTRIES
        for key in range(4 * bound):
            entries = [((f"k{key}",), key % 8), ((f"l{key}",), (key + 3) % 8)]
            arrays = RequestArrays([block], {"v": entries}, 4, reader=index)
            arrays.prefilter()
            survivors = scanned(arrays, 0, 40)["surviving"]
            assert len(block._cov_cache) <= bound
            assert survivors == [
                (row, key_tuple)
                for row in range(40)
                for key_tuple, key_super_key in entries
                if key_super_key & ~(row % 7) == 0
            ]
        # The entries of the request in flight are kept together.
        assert {(key_super_key, 4) for _, key_super_key in entries} <= set(
            block._cov_cache
        )

    def test_one_request_larger_than_the_bound(self):
        index = one_value_index([3, 1])
        [block] = index.fetch_batch(["v"])
        entries = [
            ((f"k{key}",), key) for key in range(2 * columnar.COVERAGE_MEMO_ENTRIES)
        ]
        per_level = block.query_coverage(entries, None)
        assert len(per_level) == len(entries)
        assert len(block._cov_cache) <= columnar.COVERAGE_MEMO_ENTRIES
        assert [cov for cov, _ in per_level[:4]] == [
            b"\x01\x01", b"\x01\x01", b"\x01\x00", b"\x01\x00"
        ]


# ----------------------------------------------------------------------
# (c) The encoded-table cache: invalidation, eviction, threads
# ----------------------------------------------------------------------
COLUMNS = ["name", "city", "team"]


def small_corpus() -> TableCorpus:
    corpus = TableCorpus(name="edit")
    corpus.add_table(
        Table(
            table_id=0,
            name="people",
            columns=list(COLUMNS),
            rows=[
                ["ada", "nowhere", "red"],
                ["alan", "paris", "blue"],
                ["grace", "rome", "red"],
                ["edsger", "austin", "blue"],
            ],
        )
    )
    corpus.add_table(
        Table(
            table_id=1,
            name="more",
            columns=list(COLUMNS),
            rows=[["ada", "berlin", "red"], ["kurt", "vienna", "red"]],
        )
    )
    return corpus


def small_query() -> QueryTable:
    return QueryTable(
        table=Table(
            table_id=99,
            name="q",
            columns=["n", "c"],
            rows=[
                ["ada", "berlin"], ["alan", "paris"], ["grace", "rome"],
                ["edsger", "austin"], ["linus", "helsinki"],
            ],
        ),
        key_columns=["n", "c"],
    )


def fresh_answer(corpus: TableCorpus, query: QueryTable):
    """What an engine built from scratch over a copy of ``corpus`` answers."""
    clone = copy.deepcopy(corpus)
    engine = MateDiscovery(clone, build_index(clone, config=CONFIG), config=CONFIG)
    return engine.discover(query)


def answer(result):
    return [
        (table.table_id, table.joinability, table.column_mapping)
        for table in result.tables
    ]


class TestEditedTables:
    """A table never changes in place: an edit is a new table the session
    ingests in the old one's place (remove, then ingest), and a request
    verifies rows against the postings of the snapshot it fetched from, so
    nothing it reads is ever stale."""

    @pytest.fixture(params=["buffer", "sealed"])
    def edited(self, request):
        """A session over a live index holding the small corpus, in its
        buffer or sealed (an edit then masks the segment copy)."""
        live = LiveIndex(config=CONFIG)
        session = repro.DiscoverySession(TableCorpus(name="edit"), live, config=CONFIG)
        for table in small_corpus():
            session.ingest(table)
        if request.param == "sealed":
            live.seal()
        query = small_query()
        # Verify every table before the edit, so stale state would show.
        assert answer(self.discover(session, query)) == [
            (0, 3, (0, 1)),
            (1, 1, (0, 1)),
        ]
        yield session, query
        session.close()

    @staticmethod
    def discover(session, query):
        return session.discover(repro.DiscoveryRequest(query=query, engine="live"))

    def check(self, session, query, expected_top):
        result = self.discover(session, query)
        visible = visible_corpus(session.index, session.corpus)
        assert answer(result) == answer(fresh_answer(visible, query))
        assert answer(result)[0] == expected_top

    def test_update_cell(self, edited):
        session, query = edited
        replace_table(session, with_cell(session.corpus.get_table(0), 0, 1, "berlin"))
        self.check(session, query, (0, 4, (0, 1)))

    def test_insert_row(self, edited):
        session, query = edited
        table = session.corpus.get_table(0)
        replace_table(session, with_row(table, ["linus", "helsinki", "red"]))
        self.check(session, query, (0, 4, (0, 1)))

    def test_an_edited_copy_is_read_from_its_own_postings(self, edited):
        """A snapshot pinned before the edit keeps the old copy's rows; a
        fresh one reads the edited copy's, added row included."""
        session, _query = edited
        live = session.index
        pinned = live.snapshot()
        table = session.corpus.get_table(0)
        replace_table(session, with_row(table, ["linus", "helsinki", "red"]))
        old = read_key_postings(pinned, ["linus", "ada"])
        new = read_key_postings(live.snapshot(), ["linus", "ada"])
        assert 0 not in old.values  # no "linus" before the edit
        # The edited copy's last row, the snapshot's last: "linus".
        assert new.rows[new.values == 0].tolist() == [new.num_rows - 1]
        assert new.num_rows > old.num_rows

    def test_delete_row(self, edited):
        session, query = edited
        replace_table(session, without_row(session.corpus.get_table(0), 0))
        self.check(session, query, (0, 3, (0, 1)))

    def test_insert_column(self, edited):
        session, query = edited
        table = session.corpus.get_table(0)
        replace_table(session, with_column(table, "town", ["berlin", "x", "y", "z"]))
        self.check(session, query, (0, 3, (0, 1)))
        assert self.discover(session, query).tables[0].joinability == 3
        replace_table(session, with_cell(session.corpus.get_table(0), 1, 1, "nowhere"))
        replace_table(session, with_cell(session.corpus.get_table(0), 1, 3, "paris"))
        self.check(session, query, (0, 2, (0, 3)))

    def test_delete_column(self, edited):
        session, query = edited
        replace_table(session, without_column(session.corpus.get_table(0), "name"))
        table = session.corpus.get_table(0)
        replace_table(session, with_column(table, "who", ["ada", "alan", "grace", "edsger"]))
        self.check(session, query, (0, 3, (2, 0)))

    def test_remove_and_re_add_a_table_id(self, edited):
        session, query = edited
        table = session.corpus.get_table(0)
        session.remove(0)
        # The removed table stays in the corpus; its edit is a new table.
        session.ingest(with_cell(table, 0, 1, "berlin"))
        self.check(session, query, (0, 4, (0, 1)))
        session.remove(0)
        session.ingest(Table(0, "other", list(COLUMNS), rows=[["alan", "paris", "red"]]))
        self.check(session, query, (0, 1, (0, 1)))

    def test_verification_reads_no_row(self, edited, monkeypatch):
        """Verification charges a table's width and reads no row of it:
        tables without rows answer the same (the answer names them)."""
        session, query = edited
        expected = answer(self.discover(session, query))
        corpus = session.corpus
        widths = {
            table.table_id: SimpleNamespace(
                num_columns=table.num_columns, name=table.name
            )
            for table in map(corpus.get_table, corpus.table_ids())
        }
        monkeypatch.setattr(corpus, "get_table", widths.__getitem__)
        assert answer(self.discover(session, query)) == expected


class TestNoProcessWideState:
    """Verification reads the index the request fetched from, once per
    request: nothing outlives the request, nothing is shared between
    requests but the index."""

    def test_verification_is_no_fetch(self, workload, monkeypatch):
        """The key values' postings are read besides ``fetch_batch``: the
        index's fetch memo and fetch calls are what the probes alone
        make."""
        index = build_index(workload.corpus, config=CONFIG)
        engine = MateDiscovery(workload.corpus, index, config=CONFIG)
        query = workload.queries[0]
        fetches: list[list[str]] = []
        fetch_batch = index.fetch_batch

        def recorded(values):
            values = list(values)
            fetches.append(values)
            return fetch_batch(values)

        monkeypatch.setattr(index, "fetch_batch", recorded)
        first = engine.discover(query)
        [probed] = fetches
        assert set(index._state.memo[1]) == set(probed)
        assert first.plan.verified_pairs > 0
        assert_results_byte_identical(engine.discover(query), first)
        assert len(fetches) == 2 and set(index._state.memo[1]) == set(probed)

    def test_absent_and_missing_key_values_match_nothing(self):
        """A key value the index does not hold has no postings, and a
        missing one the id no posting holds: neither verifies a row."""
        corpus = TableCorpus(name="one")
        corpus.add_table(Table(3, "t", ["x", "y"], rows=[["a", "b"]]))
        index = build_index(corpus, config=CONFIG)
        values, key_ids = request_keys(
            [("b", "never seen"), (MISSING, "a"), ("b", "a")]
        )
        assert values == ["b", "never seen", "a"]
        assert key_ids.tolist() == [[0, 1], [3, 2], [0, 2]]
        postings = read_key_postings(index, values)
        assert postings.values.tolist() == [0, 2]
        owner, chosen = joinability.key_matches(
            np.zeros(3, dtype=np.intp), np.arange(3), key_ids, postings
        )
        assert owner.tolist() == [2]
        assert [column.tolist() for column in chosen] == [[1], [0]]

    def test_two_threads_on_one_engine(self, engine, workload):
        """Concurrent requests on one engine: answers must not change."""
        expected = [engine.discover(query) for query in workload.queries]
        failures: list[BaseException] = []

        def worker():
            try:
                for _ in range(8):
                    for query, reference in zip(workload.queries, expected):
                        assert_results_byte_identical(
                            engine.discover(query), reference
                        )
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[0]


# ----------------------------------------------------------------------
# (d) Writes land under readers; readers keep what they took
# ----------------------------------------------------------------------
class TestNoBufferPinned:
    def test_edits_between_stages(self, workload):
        """A request under way answers from the blocks it fetched: tables
        ingested into the live index between its stages change nothing it
        reads, and the pre-write answer comes back."""
        index = LiveIndex(config=CONFIG)
        session = repro.DiscoverySession(TableCorpus(name="w"), index, config=CONFIG)
        for table in workload.corpus:
            session.ingest(table)
        corpus = session.corpus
        engine = MateDiscovery(corpus, index, config=CONFIG)
        query = workload.queries[0]
        expected = engine.discover(query)
        probe = next(
            iter(
                engine._build_key_super_key_map(
                    query, engine.column_selector(query, index)
                )
            )
        )
        inserted: list[int] = []

        def write():
            # A new table holding the probe value: no candidate of the
            # request changes, the value's postings do.
            table_id = max(corpus.table_ids()) + 1
            session.ingest(Table(table_id, "late", ["a"], [[probe]]))
            inserted.append(table_id)

        (before,) = index.posting_lengths([probe])
        executor = Executor(engine)
        plan = Planner(engine).plan(query)
        context = PlanContext(
            engine=engine,
            query=query,
            k=CONFIG.k,
            plan=plan,
            report=PlanReport(plan=plan),
        )
        for stage in (
            executor.candidate_generation,
            executor.superkey_prefilter,
            executor.row_verification,
            executor.topk_maintenance,
        ):
            stage.run(context)
            write()
        # The run answers from the postings it fetched, whatever came later.
        assert context.topk.result_tuples() == expected.result_tuples()
        assert index.posting_lengths([probe]) == [before + len(inserted)]
        session.close()

    @pytest.mark.parametrize("sealed", [False, True], ids=["buffer", "sealed"])
    @pytest.mark.parametrize(
        "edit",
        ["fewer_rows", "changed_cells", "removed", "column_added", "column_dropped"],
    )
    def test_an_edit_between_fetch_and_verification(self, sealed, edit):
        """A request fetches table 0's postings, then table 0 is edited
        (``remove`` + ``ingest`` of a copy with fewer rows, other cells, one
        more column or one fewer) or only removed, before row verification:
        the request answers from the snapshot it pinned, and charges the
        widths read with its fetch — the pre-edit answer, mappings and
        counters — and the next request sees the edit."""
        live = LiveIndex(config=CONFIG)
        session = repro.DiscoverySession(TableCorpus(name="e"), live, config=CONFIG)
        for table in small_corpus():
            session.ingest(table)
        if sealed:
            live.seal()
        engine = MateDiscovery(session.corpus, live, config=CONFIG)
        query = small_query()
        expected = engine.discover(query)
        assert answer(expected)[0] == (0, 3, (0, 1))
        table = session.corpus.get_table(0)
        copy_of = {
            "fewer_rows": lambda: without_row(without_row(table, 3), 2),
            "changed_cells": lambda: with_cell(
                with_cell(table, 1, 1, "lyon"), 3, 1, "berlin"
            ),
            "removed": lambda: None,
            "column_added": lambda: with_column(table, "age", ["1", "2", "3", "4"]),
            "column_dropped": lambda: without_column(table, "team"),
        }[edit]
        executor = Executor(engine)
        plan = Planner(engine).plan(query)
        context = PlanContext(
            engine=engine,
            query=query,
            k=CONFIG.k,
            plan=plan,
            report=PlanReport(plan=plan),
        )
        executor.candidate_generation.run(context)
        executor.superkey_prefilter.run(context)
        copy = copy_of()
        if copy is None:
            session.remove(0)
        else:
            replace_table(session, copy)
        executor.row_verification.run(context)
        executor.topk_maintenance.run(context)
        assert context.topk.result_tuples() == expected.result_tuples()
        assert {
            table_id: context.mappings[table_id] for table_id in context.mappings
        } == {entry.table_id: entry.column_mapping for entry in expected.tables}
        for name in ("rows_passed_filter", "true_positive_rows", "value_comparisons"):
            assert getattr(context.counters, name) == getattr(expected.counters, name)
        after = engine.discover(query)
        assert answer(after) == answer(fresh_answer(visible_corpus(live, session.corpus), query))
        assert (answer(after), after.counters.value_comparisons) != (
            answer(expected),
            expected.counters.value_comparisons,
        )
        session.close()

    @pytest.mark.parametrize("sealed", [False, True], ids=["buffer", "sealed"])
    def test_a_fetch_racing_edits_sees_one_block(self, sealed):
        """One thread edits through the session (remove table 1, ingest it
        again: three states in turn) while another fetches in a loop.  Every
        fetched block is that value's block in one of the states, never a
        value id of one block read against the offsets of another."""
        tables = [
            Table(
                table_id,
                f"t{table_id}",
                ["a", "b"],
                [[f"v{(table_id + row) % 5}", f"w{row}"] for row in range(4)],
            )
            for table_id in range(4)
        ]
        index = LiveIndex(config=CONFIG)
        session = repro.DiscoverySession(TableCorpus(name="race"), index, config=CONFIG)
        for table in tables:
            session.ingest(table)
        if sealed:
            index.seal()  # the removes mask a segment copy
        values = [f"v{i}" for i in range(5)] + [f"w{i}" for i in range(4)]
        # Ingested, table 1 removed, table 1 ingested again.
        rest = tables[:1] + tables[2:]
        states = [
            build_index(order, config=CONFIG)
            for order in (tables, rest, rest + tables[1:2])
        ]
        allowed = {
            value: [
                [block_items(block) for block in state.fetch_batch([value])]
                for state in states
            ]
            for value in values
        }
        stop = threading.Event()
        failures: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    for value in values:
                        got = [block_items(block) for block in index.fetch_batch([value])]
                        assert got in allowed[value], (value, got)
            except BaseException as error:  # noqa: BLE001 - reported below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(60):
                session.remove(1)
                session.ingest(tables[1])
        finally:
            stop.set()
            thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert not failures, failures[0]
        assert [block_items(block) for block in index.fetch_batch(values)] == [
            block_items(block) for block in states[2].fetch_batch(values)
        ]
        session.close()
