"""Tests for the baseline systems: SCR, MCR, JOSIE and the JOSIE adapters."""

import pytest

from repro.baselines import (
    JosieIndex,
    JosieSearch,
    McrDiscovery,
    McrJosieDiscovery,
    ScrDiscovery,
    ScrJosieDiscovery,
)
from repro.core import top_k_by_exact_joinability
from repro.datamodel import Table, TableCorpus
from repro.exceptions import DiscoveryError
from tests.helpers import assert_topk_equivalent


class TestScr:
    def test_matches_brute_force(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        scr = ScrDiscovery(corpus, tiny_index, config=config)
        for query in tiny_workload.queries:
            assert_topk_equivalent(
                scr.discover(query, k=3).result_tuples(),
                top_k_by_exact_joinability(query, corpus, k=3),
            )

    def test_never_uses_superkey_checks(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        result = ScrDiscovery(corpus, tiny_index, config=config).discover(
            tiny_workload.queries[0], k=3
        )
        assert result.counters.superkey_checks == 0
        assert result.system == "scr"

    def test_precision_not_higher_than_mate(self, config, tiny_workload, tiny_index):
        from repro import MateDiscovery

        corpus = tiny_workload.corpus
        query = tiny_workload.queries[0]
        scr = ScrDiscovery(corpus, tiny_index, config=config).discover(query, k=3)
        mate = MateDiscovery(corpus, tiny_index, config=config).discover(query, k=3)
        assert scr.precision <= mate.precision + 1e-9


class TestMcr:
    def test_matches_brute_force(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        mcr = McrDiscovery(corpus, tiny_index, config=config)
        for query in tiny_workload.queries:
            assert_topk_equivalent(
                mcr.discover(query, k=3).result_tuples(),
                top_k_by_exact_joinability(query, corpus, k=3),
            )

    def test_fetches_all_key_columns(self, config, tiny_workload, tiny_index):
        corpus = tiny_workload.corpus
        query = tiny_workload.queries[0]
        result = McrDiscovery(corpus, tiny_index, config=config).discover(query, k=3)
        per_column_keys = [
            key for key in result.counters.extra if key.startswith("pl_items[")
        ]
        assert len(per_column_keys) == query.key_size

    def test_rejects_bad_k(self, config, tiny_workload, tiny_index):
        mcr = McrDiscovery(tiny_workload.corpus, tiny_index, config=config)
        with pytest.raises(DiscoveryError):
            mcr.discover(tiny_workload.queries[0], k=0)


class TestJosieCore:
    @pytest.fixture()
    def corpus(self) -> TableCorpus:
        corpus = TableCorpus(name="josie")
        corpus.add_table(
            Table(table_id=0, name="big-overlap", columns=["c"],
                  rows=[["a"], ["b"], ["c"], ["d"]])
        )
        corpus.add_table(
            Table(table_id=1, name="small-overlap", columns=["c"],
                  rows=[["a"], ["x"], ["y"]])
        )
        corpus.add_table(
            Table(table_id=2, name="no-overlap", columns=["c"], rows=[["z"]])
        )
        return corpus

    def test_index_statistics(self, corpus):
        index = JosieIndex.build(corpus)
        assert len(index) == 7  # distinct values a, b, c, d, x, y, z
        assert index.num_posting_items() == 8
        assert index.posting_length("a") == 2
        assert index.columns_containing("z") == [(2, 0)]

    def test_top_k_columns_ranked_by_overlap(self, corpus):
        search = JosieSearch(JosieIndex.build(corpus))
        matches = search.top_k_columns(["a", "b", "c"], k=2)
        assert matches[0].column == (0, 0)
        assert matches[0].overlap == 3
        assert matches[1].column == (1, 0)
        assert matches[1].overlap == 1
        assert matches[0].table_id == 0

    def test_zero_overlap_columns_excluded(self, corpus):
        search = JosieSearch(JosieIndex.build(corpus))
        matches = search.top_k_columns(["a"], k=10)
        assert all(match.overlap > 0 for match in matches)
        assert {match.table_id for match in matches} == {0, 1}

    def test_top_k_tables_keeps_best_column_per_table(self, corpus):
        search = JosieSearch(JosieIndex.build(corpus))
        tables = search.top_k_tables(["a", "b"], k=3)
        assert tables[0] == (0, 2)

    def test_empty_query_or_k(self, corpus):
        search = JosieSearch(JosieIndex.build(corpus))
        assert search.top_k_columns([], k=3) == []
        assert search.top_k_columns(["a"], k=0) == []


class TestJosieAdapters:
    def test_scr_josie_finds_top_table(self, config, tiny_workload):
        corpus = tiny_workload.corpus
        engine = ScrJosieDiscovery(corpus, config=config)
        for query in tiny_workload.queries:
            truth = top_k_by_exact_joinability(query, corpus, k=1)
            result = engine.discover(query, k=3)
            assert result.tables, "expected results"
            assert result.result_tuples()[0] == truth[0]
            assert result.system == "scr_josie"

    def test_mcr_josie_finds_top_table(self, config, tiny_workload):
        corpus = tiny_workload.corpus
        engine = McrJosieDiscovery(corpus, config=config)
        for query in tiny_workload.queries:
            truth = top_k_by_exact_joinability(query, corpus, k=1)
            result = engine.discover(query, k=3)
            assert result.tables, "expected results"
            assert result.result_tuples()[0] == truth[0]
            assert result.system == "mcr_josie"

    def test_adapters_share_prebuilt_index(self, config, tiny_workload):
        corpus = tiny_workload.corpus
        josie_index = JosieIndex.build(corpus)
        scr_josie = ScrJosieDiscovery(corpus, josie_index=josie_index, config=config)
        mcr_josie = McrJosieDiscovery(corpus, josie_index=josie_index, config=config)
        assert scr_josie.josie_index is josie_index
        assert mcr_josie.josie_index is josie_index

    def test_invalid_candidate_factor(self, config, tiny_workload):
        with pytest.raises(DiscoveryError):
            ScrJosieDiscovery(tiny_workload.corpus, config=config, candidate_factor=0)
