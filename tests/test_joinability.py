"""Tests for repro.core.joinability: Eq. 1 / Eq. 2 and the verification helpers."""

import pytest

from repro import MateConfig, MateDiscovery, build_index
from repro.core import (
    exact_joinability,
    exact_joinability_score,
    joinability_from_matches,
    row_contains_key,
    row_mappings,
    top_k_by_exact_joinability,
)
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.engine_sql import SQLPushdownEngine


class TestRowMappings:
    def test_simple_match(self):
        row = ("muhammad", "lee", "us", "dancer")
        assert row_mappings(row, ("lee", "us")) == [(1, 2)]

    def test_no_match(self):
        assert row_mappings(("a", "b"), ("c",)) == []

    def test_missing_values_never_match(self):
        assert row_mappings(("", "x"), ("",)) == []

    def test_duplicate_key_values_need_distinct_columns(self):
        # The key ("us", "us") needs two distinct columns containing "us".
        assert row_mappings(("us", "dancer"), ("us", "us")) == []
        mappings = row_mappings(("us", "us"), ("us", "us"))
        assert sorted(mappings) == [(0, 1), (1, 0)]

    def test_multiple_possible_mappings(self):
        row = ("lee", "lee", "us")
        mappings = row_mappings(row, ("lee", "us"))
        assert sorted(mappings) == [(0, 2), (1, 2)]

    def test_row_contains_key(self):
        assert row_contains_key(("a", "b", "c"), ("c", "a"))
        assert not row_contains_key(("a", "b", "c"), ("c", "z"))


class TestJoinabilityFromMatches:
    def test_counts_distinct_keys_per_mapping(self):
        matches = [
            (("muhammad", "lee", "us"), ("muhammad", "lee")),
            (("ansel", "adams", "uk"), ("ansel", "adams")),
            (("ansel", "adams", "uk"), ("ansel", "adams")),  # duplicate match
        ]
        score, mapping = joinability_from_matches(matches)
        assert score == 2
        assert mapping == (0, 1)

    def test_requires_consistent_mapping(self):
        # Two matches that can only be explained by different column mappings
        # must not both count (Eq. 2 fixes a single mapping).
        matches = [
            (("lee", "muhammad"), ("muhammad", "lee")),   # mapping (1, 0)
            (("ansel", "adams"), ("ansel", "adams")),      # mapping (0, 1)
        ]
        score, _ = joinability_from_matches(matches)
        assert score == 1

    def test_empty(self):
        assert joinability_from_matches([]) == (0, None)


class TestExactJoinability:
    def test_running_example_score_is_five(self, running_example_tables):
        query, candidate = running_example_tables
        score, mapping = exact_joinability(query, candidate)
        assert score == 5
        # F. Name -> Vorname (0), L. Name -> Nachname (1), Country -> Land (2).
        assert mapping == (0, 1, 2)

    def test_swapped_mapping_would_score_zero(self, running_example_tables):
        query, candidate = running_example_tables
        # Restricting to two key columns still finds the right mapping.
        two_column_query = QueryTable(
            table=query.table, key_columns=["f_name", "l_name"]
        )
        score, mapping = exact_joinability(two_column_query, candidate)
        # d's distinct (first, last) pairs are (muhammad, lee), (ansel, adams)
        # and (helmut, newton); all three appear in T1.
        assert score == 3
        assert mapping == (0, 1)

    def test_candidate_with_too_few_columns(self, running_example_tables):
        query, _ = running_example_tables
        narrow = Table(table_id=9, name="narrow", columns=["a"], rows=[["x"]])
        assert exact_joinability(query, narrow) == (0, None)

    def test_score_bounded_by_cardinality(self, running_example_tables):
        query, candidate = running_example_tables
        assert exact_joinability_score(query, candidate) <= len(query.key_tuples())


class TestTopKByExactJoinability:
    def test_orders_and_drops_zero_scores(self, running_example_corpus):
        query, corpus = running_example_corpus
        results = top_k_by_exact_joinability(query, corpus, k=5)
        assert results[0] == (1, 5)
        assert all(score > 0 for _, score in results)

    def test_k_limits_results(self, running_example_corpus):
        query, corpus = running_example_corpus
        assert len(top_k_by_exact_joinability(query, corpus, k=1)) == 1

    @pytest.mark.parametrize("engine_class", [MateDiscovery, SQLPushdownEngine])
    def test_engines_keep_the_first_evaluated_table_at_the_cutoff(
        self, engine_class
    ):
        """The oracle breaks a k-th-score tie by id, the engines by
        evaluation order: table 1 has more postings, is scored first, and
        rule 1 then drops table 0, which could only equal its score."""
        matching = [["ada", "us"], ["alan", "uk"]]
        corpus = TableCorpus(name="cutoff-tie")
        for table_id, rows in enumerate([matching, matching + [["ada", "us"]]]):
            corpus.add_table(
                Table(
                    table_id=table_id,
                    name=f"t{table_id}",
                    columns=["name", "country"],
                    rows=rows,
                )
            )
        query = QueryTable(
            table=Table(table_id=9, name="q", columns=["n", "c"], rows=matching),
            key_columns=["n", "c"],
        )
        assert top_k_by_exact_joinability(query, corpus, k=2) == [(0, 2), (1, 2)]
        assert top_k_by_exact_joinability(query, corpus, k=1) == [(0, 2)]

        config = MateConfig(hash_size=128, expected_unique_values=1000)
        engine = engine_class(corpus, build_index(corpus, config=config), config=config)
        try:
            assert engine.discover(query, k=2).result_tuples() == [(0, 2), (1, 2)]
            result = engine.discover(query, k=1)
        finally:
            if isinstance(engine, SQLPushdownEngine):
                engine.close()
        assert result.result_tuples() == [(1, 2)]
        assert result.counters.tables_pruned_by_rule1 == 1
