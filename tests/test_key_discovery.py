"""Tests for composite-key candidate discovery (repro.extensions.key_discovery)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datamodel import Table
from repro.exceptions import DataModelError
from repro.extensions import (
    KeyCandidate,
    discover_key_candidates,
    evaluate_combination,
    rank_key_candidates,
    suggest_query,
)


@pytest.fixture()
def people_table():
    """first+last is the minimal composite UCC; no single column is unique."""
    return Table(
        table_id=1,
        name="people",
        columns=["first", "last", "country", "salary"],
        rows=[
            ["muhammad", "lee", "us", "60000.5"],
            ["ansel", "adams", "uk", "50000.5"],
            ["ansel", "newton", "us", "40000.5"],
            ["muhammad", "newton", "us", "90000.5"],
        ],
    )


class TestEvaluateCombination:
    def test_unique_combination(self, people_table):
        candidate = evaluate_combination(people_table, ["first", "last"])
        assert candidate.is_unique
        assert candidate.distinct_combinations == 4
        assert candidate.covered_rows == 4
        assert candidate.uniqueness == 1.0
        assert candidate.arity == 2

    def test_non_unique_combination(self, people_table):
        candidate = evaluate_combination(people_table, ["first"])
        assert not candidate.is_unique
        assert candidate.distinct_combinations == 2
        assert candidate.uniqueness == 0.5

    def test_missing_values_reduce_coverage(self):
        table = Table(
            table_id=2, name="gaps", columns=["a", "b"],
            rows=[["x", "1"], ["", "2"], ["y", ""]],
        )
        candidate = evaluate_combination(table, ["a", "b"])
        assert candidate.covered_rows == 1
        assert candidate.distinct_combinations == 1

    def test_rejects_empty_and_duplicate_columns(self, people_table):
        with pytest.raises(DataModelError):
            evaluate_combination(people_table, [])
        with pytest.raises(DataModelError):
            evaluate_combination(people_table, ["first", "first"])


class TestDiscoverKeyCandidates:
    def test_finds_minimal_composite_ucc(self, people_table):
        candidates = discover_key_candidates(people_table, max_arity=3)
        assert candidates, "expected at least one candidate"
        best = candidates[0]
        assert best.is_unique
        assert set(best.columns) == {"first", "last"}
        # salary is a float measure column and must not appear anywhere.
        assert all("salary" not in c.columns for c in candidates)

    def test_single_unique_column_is_found_at_level_one(self):
        table = Table(
            table_id=3, name="ids", columns=["id", "name"],
            rows=[["a1", "x"], ["b2", "x"], ["c3", "y"]],
        )
        candidates = discover_key_candidates(table, max_arity=2)
        assert candidates[0].columns == ("id",)
        assert candidates[0].arity == 1

    def test_supersets_of_uccs_are_not_reported(self, people_table):
        candidates = discover_key_candidates(people_table, max_arity=3)
        ucc_sets = [set(c.columns) for c in candidates if c.is_unique]
        for first in ucc_sets:
            for second in ucc_sets:
                if first is not second:
                    assert not first < second

    def test_no_ucc_within_arity_returns_near_keys(self):
        table = Table(
            table_id=4, name="dups", columns=["a", "b"],
            rows=[["x", "1"], ["x", "1"], ["y", "2"]],
        )
        candidates = discover_key_candidates(table, max_arity=2)
        assert candidates
        assert all(not c.is_unique for c in candidates)
        assert candidates[0].uniqueness < 1.0

    def test_min_coverage_guard(self):
        table = Table(
            table_id=5, name="sparse", columns=["a", "b"],
            rows=[["x", ""], ["", "1"], ["", "2"], ["", "3"]],
        )
        candidates = discover_key_candidates(table, max_arity=2, min_coverage=0.9)
        assert all("a" not in c.columns for c in candidates)

    def test_explicit_column_subset(self, people_table):
        candidates = discover_key_candidates(
            people_table, max_arity=2, columns=["country", "last"]
        )
        assert all(set(c.columns) <= {"country", "last"} for c in candidates)

    def test_unknown_column_raises(self, people_table):
        with pytest.raises(DataModelError):
            discover_key_candidates(people_table, columns=["nope"])

    def test_invalid_arity_raises(self, people_table):
        with pytest.raises(DataModelError):
            discover_key_candidates(people_table, max_arity=0)

    def test_empty_candidate_column_set(self):
        table = Table(
            table_id=6, name="floats", columns=["m1", "m2"],
            rows=[["1.5", "2.5"], ["3.5", "4.5"]],
        )
        assert discover_key_candidates(table, max_arity=2) == []

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]), st.sampled_from(["x", "y", "z"])
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_property_reported_uccs_are_actually_unique(self, pairs):
        rows = [[first, second] for first, second in pairs]
        table = Table(table_id=9, name="random", columns=["p", "q"], rows=rows)
        for candidate in discover_key_candidates(table, max_arity=2):
            if candidate.is_unique:
                recomputed = evaluate_combination(table, candidate.columns)
                assert recomputed.is_unique


class TestRankingAndSuggestQuery:
    def test_ranking_prefers_unique_then_small_then_friendly(self, people_table):
        unique_pair = evaluate_combination(people_table, ["first", "last"])
        non_unique = evaluate_combination(people_table, ["country"])
        wide_unique = evaluate_combination(
            people_table, ["first", "last", "country"]
        )
        ranked = rank_key_candidates(
            people_table, [non_unique, wide_unique, unique_pair]
        )
        assert ranked[0] == unique_pair
        assert ranked[-1] == non_unique

    def test_suggest_query_prefers_composite_key(self, people_table):
        query = suggest_query(people_table, max_arity=3, prefer_arity=2)
        assert set(query.key_columns) == {"first", "last"}
        assert query.table is people_table

    def test_suggest_query_without_preference(self):
        table = Table(
            table_id=7, name="ids", columns=["id", "name"],
            rows=[["a1", "x"], ["b2", "y"]],
        )
        query = suggest_query(table, prefer_arity=None)
        assert query.key_columns in (["id"], ["name"], ["id", "name"])

    def test_suggest_query_raises_without_candidates(self):
        table = Table(
            table_id=8, name="floats", columns=["m"], rows=[["1.5"], ["2.5"]]
        )
        with pytest.raises(DataModelError):
            suggest_query(table)

    def test_key_candidate_is_frozen(self):
        candidate = KeyCandidate(
            columns=("a",), distinct_combinations=1, covered_rows=1,
            uniqueness=1.0, is_unique=True, is_minimal=True,
        )
        with pytest.raises(AttributeError):
            candidate.uniqueness = 0.5  # type: ignore[misc]
