"""End-to-end integration tests across modules.

These exercise the full pipeline (generation -> indexing -> discovery ->
baselines -> persistence) on a shared workload and check cross-system
agreement plus the key comparative claims at tiny scale.
"""

import pytest

from repro import MateConfig, MateDiscovery, build_index
from repro.baselines import McrDiscovery, McrJosieDiscovery, ScrDiscovery, ScrJosieDiscovery
from repro.core import top_k_by_exact_joinability
from repro.datagen import build_workload
from repro.storage import (
    load_corpus_json,
    load_segment,
    save_corpus_json,
    write_segment,
)
from tests.helpers import assert_topk_equivalent


@pytest.fixture(scope="module")
def setup():
    config = MateConfig(hash_size=128, k=3, expected_unique_values=700_000_000)
    workload = build_workload("OD_100", seed=21, num_queries=2, corpus_scale=0.1)
    index = build_index(workload.corpus, config=config)
    return config, workload, index


class TestSystemsAgree:
    def test_all_exact_systems_return_equivalent_topk(self, setup):
        config, workload, index = setup
        corpus = workload.corpus
        engines = {
            "mate": MateDiscovery(corpus, index, config=config),
            "scr": ScrDiscovery(corpus, index, config=config),
            "mcr": McrDiscovery(corpus, index, config=config),
        }
        for query in workload.queries:
            truth = top_k_by_exact_joinability(query, corpus, k=3)
            for name, engine in engines.items():
                result = engine.discover(query, k=3)
                assert_topk_equivalent(result.result_tuples(), truth)

    def test_josie_adapters_find_the_best_table(self, setup):
        config, workload, _ = setup
        corpus = workload.corpus
        for query in workload.queries:
            truth = top_k_by_exact_joinability(query, corpus, k=1)
            for engine in (
                ScrJosieDiscovery(corpus, config=config),
                McrJosieDiscovery(corpus, config=config),
            ):
                result = engine.discover(query, k=3)
                assert result.result_tuples()[0] == truth[0]

    def test_planted_tables_dominate_the_topk(self, setup):
        config, workload, index = setup
        corpus = workload.corpus
        mate = MateDiscovery(corpus, index, config=config)
        for query_index, query in enumerate(workload.queries):
            planted_ids = {
                record.table_id
                for record in workload.planted_for(query_index)
                if not record.is_distractor
            }
            result = mate.discover(query, k=3)
            assert {entry.table_id for entry in result.tables} <= planted_ids | {
                table_id for table_id, _ in top_k_by_exact_joinability(query, corpus, k=10)
            }
            assert planted_ids & {entry.table_id for entry in result.tables}


class TestComparativeClaims:
    def test_mate_filter_prunes_rows_scr_must_verify(self, setup):
        config, workload, index = setup
        corpus = workload.corpus
        query = workload.queries[0]
        mate = MateDiscovery(corpus, index, config=config).discover(query, k=3)
        scr = ScrDiscovery(corpus, index, config=config).discover(query, k=3)
        # SCR verifies every fetched row; MATE verifies only the filtered ones.
        assert mate.counters.value_comparisons <= scr.counters.value_comparisons
        assert mate.precision >= scr.precision

    def test_mcr_fetches_more_postings_than_mate(self, setup):
        config, workload, index = setup
        corpus = workload.corpus
        query = workload.queries[0]
        mate = MateDiscovery(corpus, index, config=config).discover(query, k=3)
        mcr = McrDiscovery(corpus, index, config=config).discover(query, k=3)
        assert mcr.counters.pl_items_fetched >= mate.counters.pl_items_fetched

    def test_larger_hash_size_does_not_hurt_precision(self, setup):
        config, workload, _ = setup
        corpus = workload.corpus
        query = workload.queries[0]
        precisions = {}
        for hash_size in (64, 512):
            sized_config = config.with_hash_size(hash_size)
            sized_index = build_index(corpus, config=sized_config)
            result = MateDiscovery(corpus, sized_index, config=sized_config).discover(
                query, k=3
            )
            precisions[hash_size] = result.precision
        assert precisions[512] >= precisions[64] - 0.05


class TestPersistenceRoundTrip:
    def test_discovery_identical_after_segment_round_trip(self, setup, tmp_path):
        config, workload, index = setup
        corpus = workload.corpus
        query = workload.queries[0]
        direct = MateDiscovery(corpus, index, config=config).discover(query, k=3)

        restored_corpus = load_corpus_json(
            save_corpus_json(corpus, tmp_path / "corpus.json")
        )
        restored_index = load_segment(
            write_segment(index, tmp_path / "index.seg", fsync=False)
        )
        try:
            restored = MateDiscovery(
                restored_corpus, restored_index, config=config
            ).discover(query, k=3)
        finally:
            restored_index.close()
        assert restored.result_tuples() == direct.result_tuples()
