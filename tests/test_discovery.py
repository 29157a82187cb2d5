"""Tests for the MATE discovery engine (Algorithm 1)."""

import pytest

from repro import MateDiscovery, build_index
from repro.core import top_k_by_exact_joinability
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.exceptions import DiscoveryError


class TestRunningExample:
    def test_finds_candidate_with_joinability_five(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config)
        mate = MateDiscovery(corpus, index, config=config)
        result = mate.discover(query, k=2)
        assert result.tables, "expected at least one joinable table"
        best = result.tables[0]
        assert best.table_id == 1
        assert best.joinability == 5
        # Best mapping: f_name -> vorname (0), l_name -> nachname (1),
        # country -> land (2).
        assert best.column_mapping == (0, 1, 2)

    def test_counters_populated(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config)
        result = MateDiscovery(corpus, index, config=config).discover(query, k=1)
        counters = result.counters
        assert counters.pl_items_fetched > 0
        assert counters.rows_checked > 0
        assert counters.true_positive_rows >= 5
        assert counters.runtime_seconds > 0
        assert 0.0 <= result.precision <= 1.0

    def test_result_helpers(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config)
        result = MateDiscovery(corpus, index, config=config).discover(query, k=2)
        assert result.tables[0].table_id == 1
        assert result.joinability_of(1) == 5
        assert result.joinability_of(999) == 0
        assert result.tables[0].as_dict()["joinability"] == 5


from tests.helpers import assert_topk_equivalent


class TestAgainstBruteForce:
    def test_matches_exact_top_k_on_workload(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        mate = MateDiscovery(corpus, tiny_index, config=config)
        for query in tiny_workload.queries:
            result = mate.discover(query, k=3)
            truth = top_k_by_exact_joinability(query, corpus, k=3)
            assert_topk_equivalent(result.result_tuples(), truth)

    def test_different_k_values(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        mate = MateDiscovery(corpus, tiny_index, config=config)
        query = tiny_workload.queries[0]
        for k in (1, 2, 5):
            result = mate.discover(query, k=k)
            truth = top_k_by_exact_joinability(query, corpus, k=k)
            assert_topk_equivalent(result.result_tuples(), truth)


class TestConfigurationHandling:
    def test_rejects_non_positive_k(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config)
        mate = MateDiscovery(corpus, index, config=config)
        with pytest.raises(DiscoveryError):
            mate.discover(query, k=0)

    def test_rejects_hash_function_mismatch(self, config, running_example_corpus):
        _, corpus = running_example_corpus
        index = build_index(corpus, config=config, hash_function_name="bloom")
        with pytest.raises(DiscoveryError):
            MateDiscovery(corpus, index, config=config, hash_function_name="xash")

    def test_mismatch_allowed_when_filter_disabled(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config, hash_function_name="bloom")
        engine = MateDiscovery(
            corpus, index, config=config, hash_function_name="xash",
            row_filter_mode="none",
        )
        assert engine.discover(query, k=1).tables[0].joinability == 5

    def test_rejects_selector_outside_key(self, config, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=config)

        def bad_selector(query_table, idx=None):
            return "salary"  # not a key column

        mate = MateDiscovery(corpus, index, config=config, column_selector=bad_selector)
        with pytest.raises(DiscoveryError):
            mate.discover(query)

    def test_table_filters_can_be_disabled(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        query = tiny_workload.queries[0]
        filtered = MateDiscovery(corpus, tiny_index, config=config).discover(query, k=2)
        unfiltered = MateDiscovery(
            corpus, tiny_index, config=config, use_table_filters=False
        ).discover(query, k=2)
        assert filtered.result_tuples() == unfiltered.result_tuples()
        assert (
            unfiltered.counters.tables_pruned_by_rule1 == 0
            and unfiltered.counters.tables_pruned_by_rule2 == 0
        )


class TestEdgeCases:
    def test_query_with_no_matches(self, config):
        corpus = TableCorpus(name="empty-match")
        corpus.create_table("only", ["a", "b"], [["x", "y"]])
        index = build_index(corpus, config=config)
        query_table = Table(
            table_id=99, name="q", columns=["p", "q"], rows=[["nope", "never"]]
        )
        query = QueryTable(table=query_table, key_columns=["p", "q"])
        result = MateDiscovery(corpus, index, config=config).discover(query, k=3)
        assert result.tables == []
        assert result.counters.pl_items_fetched == 0

    def test_query_with_missing_key_values(self, config):
        corpus = TableCorpus(name="missing")
        corpus.create_table("t", ["a", "b", "c"], [["x", "y", "z"]])
        index = build_index(corpus, config=config)
        query_table = Table(
            table_id=99,
            name="q",
            columns=["p", "q"],
            rows=[["x", None], ["x", "y"], [None, None]],
        )
        query = QueryTable(table=query_table, key_columns=["p", "q"])
        result = MateDiscovery(corpus, index, config=config).discover(query, k=3)
        # Only the complete key tuple (x, y) may count.
        assert result.result_tuples() == [(0, 1)]

    def test_single_column_key_degenerates_to_unary_join(self, config):
        corpus = TableCorpus(name="unary")
        corpus.create_table("t", ["a", "b"], [["x", "1"], ["y", "2"], ["x", "3"]])
        index = build_index(corpus, config=config)
        query_table = Table(table_id=99, name="q", columns=["k"], rows=[["x"], ["y"], ["z"]])
        query = QueryTable(table=query_table, key_columns=["k"])
        result = MateDiscovery(corpus, index, config=config).discover(query, k=1)
        assert result.result_tuples() == [(0, 2)]

    def test_duplicate_query_rows_do_not_inflate_joinability(self, config):
        corpus = TableCorpus(name="dups")
        corpus.create_table("t", ["a", "b"], [["x", "y"]])
        index = build_index(corpus, config=config)
        query_table = Table(
            table_id=99, name="q", columns=["p", "q"],
            rows=[["x", "y"], ["x", "y"], ["x", "y"]],
        )
        query = QueryTable(table=query_table, key_columns=["p", "q"])
        result = MateDiscovery(corpus, index, config=config).discover(query, k=1)
        assert result.result_tuples() == [(0, 1)]
