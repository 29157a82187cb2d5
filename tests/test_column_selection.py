"""Tests for the initial-column selection heuristics (Section 6.1 / 7.5.4)."""

import pytest

from repro import MateDiscovery, build_index
from repro.core import (
    COLUMN_SELECTORS,
    fetched_pl_count,
    get_column_selector,
    select_best_case,
    select_by_cardinality,
    select_by_column_order,
    select_by_longest_string,
    select_worst_case,
)
from repro.datamodel import MISSING, QueryTable, Table, TableCorpus
from repro.exceptions import DiscoveryError


@pytest.fixture()
def query() -> QueryTable:
    table = Table(
        table_id=0,
        name="q",
        columns=["code", "name", "city", "note"],
        rows=[
            ["a1", "alexander hamilton", "berlin", "x"],
            ["a1", "george washington", "paris", "y"],
            ["b2", "alexander hamilton", "berlin", "z"],
            ["a1", "thomas jefferson", "rome", "w"],
        ],
    )
    return QueryTable(table=table, key_columns=["code", "name", "city"])


@pytest.fixture()
def corpus_and_index(config):
    corpus = TableCorpus(name="selector")
    # "berlin"/"paris" appear in many rows; "a1"/"b2" appear rarely.
    corpus.add_table(
        Table(
            table_id=0,
            name="cities",
            columns=["city", "value"],
            rows=[["berlin", str(i)] for i in range(10)] + [["paris", "x"]],
        )
    )
    corpus.add_table(
        Table(
            table_id=1,
            name="codes",
            columns=["code", "value"],
            rows=[["a1", "1"], ["zz", "2"]],
        )
    )
    return corpus, build_index(corpus, config=config)


class TestHeuristics:
    def test_cardinality_picks_fewest_distinct(self, query):
        # code has 2 distinct values, city has 3, name has 3.
        assert select_by_cardinality(query) == "code"

    def test_column_order_picks_first_key_column(self, query):
        assert select_by_column_order(query) == "code"

    def test_column_order_respects_table_order_not_key_order(self, query):
        reordered = QueryTable(table=query.table, key_columns=["city", "code"])
        assert select_by_column_order(reordered) == "code"

    def test_longest_string_picks_longest_value(self, query):
        assert select_by_longest_string(query) == "name"

    def test_worst_and_best_need_index(self, query):
        with pytest.raises(DiscoveryError):
            select_worst_case(query, None)
        with pytest.raises(DiscoveryError):
            select_best_case(query, None)

    def test_worst_and_best_use_posting_counts(self, query, corpus_and_index):
        _, index = corpus_and_index
        assert select_worst_case(query, index) == "city"
        assert select_best_case(query, index) in {"name", "code"}

    def test_fetched_pl_count(self, query, corpus_and_index):
        _, index = corpus_and_index
        city_count = fetched_pl_count(query, index, "worst_case")
        code_count = fetched_pl_count(query, index, select_by_cardinality)
        assert city_count == 11
        assert code_count == 1

    def test_counts_are_what_the_run_fetches(self, config):
        """A value in a row with a missing key value is never probed: the
        index-backed selectors count only the complete key tuples' values,
        so every selector's count is what its run fetches."""
        corpus = TableCorpus(name="probed")
        corpus.add_table(
            Table(0, "match", ["a", "b"], [["x", "p"], ["y", "q"], ["z", "r"]])
        )
        corpus.add_table(Table(1, "bs", ["b"], [["p"], ["q"], ["r"], ["p"]]))
        corpus.add_table(Table(2, "hot", ["a"], [["hot"]] * 50))
        index = build_index(corpus, config=config)
        query = QueryTable(
            table=Table(
                9, "q", ["a", "b"],
                [["x", "p"], ["y", "q"], ["z", "r"], ["hot", MISSING]],
            ),
            key_columns=["a", "b"],
        )
        assert select_best_case(query, index) == "a"  # 3 postings, b's 7
        assert fetched_pl_count(query, index, "worst_case") == 7
        for name in COLUMN_SELECTORS:
            engine = MateDiscovery(corpus, index, config=config, column_selector=name)
            fetched = engine.discover(query).counters.pl_items_fetched
            assert fetched_pl_count(query, index, name) == fetched, name

    def test_registry(self):
        assert set(COLUMN_SELECTORS) == {
            "cardinality", "column_order", "longest_string", "worst_case", "best_case",
        }
        assert get_column_selector("cardinality") is select_by_cardinality
        with pytest.raises(DiscoveryError):
            get_column_selector("magic")
