"""Tests for the extension experiments (scaling, frequency source, sharding)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    DEFAULT_SHARD_COUNTS,
    ExperimentSettings,
    FREQUENCY_SOURCES,
    run_frequency_source,
    run_scaling,
    run_sharding,
)

#: Deliberately tiny scale: these tests exercise the plumbing and the most
#: robust shape properties; the benchmarks run the full-size versions.
SETTINGS = ExperimentSettings(seed=5, num_queries=1, corpus_scale=0.1, k=3)


class TestScalingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scaling(SETTINGS, workload_name="WT_100", scale_factors=(0.5, 1.0))

    def test_row_shape(self, result):
        assert len(result.rows) == 2
        assert result.headers[0] == "scale factor"
        assert [row[0] for row in result.rows] == [0.5, 1.0]

    def test_corpus_grows_with_scale(self, result):
        tables = [row[1] for row in result.rows]
        assert tables[1] >= tables[0]

    def test_runtimes_positive(self, result):
        for row in result.row_dicts():
            assert row["mate runtime (s)"] >= 0.0
            assert row["scr runtime (s)"] >= 0.0

    def test_render_to_text(self, result):
        text = result.to_text()
        assert "Scaling study" in text
        assert "note:" in text


class TestFrequencySourceExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_frequency_source(SETTINGS, workload_name="WT_100")

    def test_all_sources_reported(self, result):
        assert [row[0] for row in result.rows] == list(FREQUENCY_SOURCES)

    def test_precision_in_unit_interval(self, result):
        for row in result.row_dicts():
            assert 0.0 <= row["precision"] <= 1.0

    def test_unknown_source_raises(self):
        with pytest.raises(ValueError):
            run_frequency_source(
                SETTINGS, workload_name="WT_100", sources=("martian",)
            )


class TestShardingExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return run_sharding(SETTINGS, workload_name="WT_100", shard_counts=(1, 3))

    def test_default_shard_counts_are_increasing(self):
        assert list(DEFAULT_SHARD_COUNTS) == sorted(DEFAULT_SHARD_COUNTS)

    def test_topk_scores_identical_for_every_shard_count(self, result):
        for row in result.row_dicts():
            matched, total = str(row["top-k scores identical"]).split("/")
            assert matched == total

    def test_work_imbalance_at_least_one(self, result):
        for row in result.row_dicts():
            assert row["work imbalance"] >= 1.0 or row["work imbalance"] == 0.0

    def test_row_per_shard_count(self, result):
        assert [row[0] for row in result.rows] == [1, 3]
