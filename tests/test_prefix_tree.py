"""Tests for the prefix-tree related-work baseline (repro.baselines.prefix_tree)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MateConfig
from repro.core import MateDiscovery, exact_joinability, top_k_by_exact_joinability
from repro.baselines import PrefixTreeDiscovery, TablePrefixTree
from repro.datamodel import Table
from repro.exceptions import DiscoveryError
from repro.index import build_index
from repro.metrics import DiscoveryCounters

CONFIG = MateConfig(expected_unique_values=100_000, k=5)


@pytest.fixture()
def figure1(running_example_corpus):
    """The paper's running example: query d and candidate table T1."""
    return running_example_corpus


class TestTablePrefixTree:
    @pytest.fixture()
    def table(self):
        return Table(
            table_id=1,
            name="t1",
            columns=["vorname", "nachname", "land"],
            rows=[
                ["muhammad", "lee", "us"],
                ["ansel", "adams", "uk"],
                ["muhammad", "ali", "us"],
            ],
        )

    def test_node_count_shares_prefixes(self, table):
        tree = TablePrefixTree(table)

        def nodes(node):
            return 1 + sum(nodes(child) for child in node.children.values())

        # Root + 2 first-level (muhammad, ansel) + 3 second + 3 third = 9.
        assert nodes(tree.root) == 9

    def test_contains_with_full_assignment(self, table):
        tree = TablePrefixTree(table)
        assert tree.contains({0: "muhammad", 1: "lee", 2: "us"})
        assert not tree.contains({0: "muhammad", 1: "adams", 2: "us"})

    def test_contains_with_wildcards(self, table):
        tree = TablePrefixTree(table)
        assert tree.contains({1: "adams"})
        assert tree.contains({2: "us"})
        assert not tree.contains({1: "newton"})

    def test_contains_counts_node_visits(self, table):
        tree = TablePrefixTree(table)
        counters = DiscoveryCounters()
        tree.contains({0: "muhammad", 1: "lee", 2: "us"}, counters)
        assert counters.value_comparisons >= 3

    def test_contains_rejects_bad_column(self, table):
        tree = TablePrefixTree(table)
        with pytest.raises(DiscoveryError):
            tree.contains({7: "x"})

    def test_joinability_with_known_mapping(self, table):
        tree = TablePrefixTree(table)
        key_tuples = [("muhammad", "lee"), ("ansel", "adams"), ("helmut", "newton")]
        assert tree.joinability_with_mapping(key_tuples, (0, 1)) == 2
        assert tree.joinability_with_mapping(key_tuples, (1, 0)) == 0

    def test_joinability_rejects_repeated_mapping(self, table):
        tree = TablePrefixTree(table)
        with pytest.raises(DiscoveryError):
            tree.joinability_with_mapping([("a", "b")], (1, 1))

    @given(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")),
            min_size=1,
            max_size=10,
        ),
        st.lists(
            st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_known_mapping_matches_set_intersection(self, rows, keys):
        table = Table(
            table_id=3, name="random", columns=["p", "q"],
            rows=[list(row) for row in rows],
        )
        tree = TablePrefixTree(table)
        distinct_keys = sorted(set(keys))
        expected = len(set(distinct_keys) & {tuple(row) for row in table.rows})
        assert tree.joinability_with_mapping(distinct_keys, (0, 1)) == expected


class TestPrefixTreeDiscovery:
    def test_figure1_example(self, figure1):
        query, corpus = figure1
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        result = engine.discover(query, k=2)
        assert result.tables
        assert result.tables[0].joinability == 5
        assert result.counters.extra["mappings_evaluated"] > 0

    def test_agrees_with_brute_force_on_small_corpus(self, figure1):
        query, corpus = figure1
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        result = engine.discover(query, k=3)
        expected = top_k_by_exact_joinability(query, list(corpus), k=3)
        assert result.result_tuples() == expected

    def test_agrees_with_mate_on_figure1(self, figure1):
        query, corpus = figure1
        index = build_index(corpus, config=CONFIG)
        mate = MateDiscovery(corpus, index, config=CONFIG).discover(query, k=2)
        prefix = PrefixTreeDiscovery(corpus, config=CONFIG).discover(query, k=2)
        assert prefix.result_tuples() == mate.result_tuples()

    def test_best_mapping_is_reported(self, figure1):
        query, corpus = figure1
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        result = engine.discover(query, k=1)
        top = result.tables[0]
        score, expected_mapping = exact_joinability(
            query, corpus.get_table(top.table_id)
        )
        assert top.joinability == score
        assert top.column_mapping is not None
        assert set(top.column_mapping) == set(expected_mapping)

    def test_wide_tables_are_skipped(self, figure1):
        query, corpus = figure1
        wide = Table(
            table_id=900,
            name="very_wide",
            columns=[f"c{i}" for i in range(15)],
            rows=[[str(i) for i in range(15)]],
        )
        corpus.add_table(wide)
        engine = PrefixTreeDiscovery(corpus, config=CONFIG, max_candidate_columns=10)
        result = engine.discover(query, k=2)
        assert result.counters.extra["tables_skipped_too_wide"] == 1.0
        corpus.remove_table(900)

    def test_mapping_enumeration_is_factorial(self, figure1):
        """The number of enumerated mappings equals sum of P(|T'|, |Q|)."""
        from math import perm

        query, corpus = figure1
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        result = engine.discover(query, k=2)
        expected = sum(
            perm(table.num_columns, query.key_size)
            for table in corpus
            if table.num_columns >= query.key_size
        )
        assert result.counters.extra["mappings_evaluated"] == expected

    def test_invalid_parameters(self, figure1):
        query, corpus = figure1
        with pytest.raises(DiscoveryError):
            PrefixTreeDiscovery(corpus, config=CONFIG, max_candidate_columns=0)
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        with pytest.raises(DiscoveryError):
            engine.discover(query, k=0)

    def test_default_k_from_config(self, figure1):
        query, corpus = figure1
        engine = PrefixTreeDiscovery(corpus, config=CONFIG)
        assert engine.discover(query).k == CONFIG.k


class TestRelatedWorkExperiment:
    def test_plumbing(self):
        from repro.experiments import ExperimentSettings, run_related_work

        settings = ExperimentSettings(seed=5, num_queries=1, corpus_scale=0.1, k=3)
        result = run_related_work(settings, workload_names=("WT_10",))
        assert len(result.rows) == 1
        row = result.row_dicts()[0]
        assert row["query set"] == "WT_10"
        assert row["mate runtime (s)"] >= 0.0
        assert row["avg mappings enumerated"] > 0
