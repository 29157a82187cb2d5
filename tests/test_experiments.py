"""Tests for the experiment harness (runner + every table/figure module).

These run the real experiment code at deliberately tiny scale; they check the
*plumbing* (row shapes, headers, determinism of workloads, notes) and a few
robust shape properties, not the paper's absolute numbers — the benchmarks in
``benchmarks/`` are the place where the full-shape runs happen.
"""

import pytest

from repro.experiments import (
    DEFAULT_TABLE2_WORKLOADS,
    ExperimentResult,
    ExperimentSettings,
    FIGURE5_BARS,
    HEURISTIC_ORDER,
    WorkloadContext,
    aggregate_results,
    build_context,
    format_table,
    run_figure4,
    run_figure5,
    run_figure6,
    run_index_generation,
    run_init_column,
    run_mate,
    run_system,
    run_table1,
    run_table2,
    run_table3,
    run_topk,
)

#: One tiny settings object shared by every experiment test.
SETTINGS = ExperimentSettings(seed=5, num_queries=1, corpus_scale=0.1, k=3)


@pytest.fixture(scope="module")
def wt_context() -> WorkloadContext:
    return build_context("WT_100", SETTINGS)


class TestRunnerPlumbing:
    def test_settings_config(self):
        config = SETTINGS.config(256)
        assert config.hash_size == 256
        assert config.k == 3

    def test_context_caches_indexes(self, wt_context):
        first = wt_context.index("xash", 128)
        second = wt_context.index("xash", 128)
        assert first is second
        assert wt_context.index("bloom", 128) is not first

    def test_context_config_sets_bloom_v(self, wt_context):
        config = wt_context.config(128)
        assert config.bloom_values_per_row == pytest.approx(
            wt_context.average_columns()
        )

    def test_context_josie_index_cached(self, wt_context):
        assert wt_context.josie_index() is wt_context.josie_index()

    def test_run_mate_aggregates(self, wt_context):
        run = run_mate(wt_context, "xash", 128)
        assert run.workload == "WT_100"
        assert run.system == "mate[xash/128]"
        assert len(run.results) == len(wt_context.queries)
        assert run.total_runtime >= run.mean_runtime
        assert 0.0 <= run.precision_mean <= 1.0

    def test_run_system_with_factory(self, wt_context):
        from repro.baselines import ScrDiscovery

        def factory(ctx, size):
            return ScrDiscovery(ctx.workload.corpus, ctx.index("xash", size),
                                config=ctx.config(size))

        run = run_system(wt_context, factory, "scr", 128)
        assert run.system == "scr"

    def test_aggregate_results_empty(self):
        run = aggregate_results("x", "w", [])
        assert run.mean_runtime == 0.0
        assert run.precision_mean == 0.0

    def test_experiment_result_rendering(self):
        result = ExperimentResult(
            name="demo", headers=["a", "b"], rows=[[1, 2.5]], notes=["hello"]
        )
        text = result.to_text()
        assert "demo" in text and "hello" in text
        assert result.row_dicts() == [{"a": 1, "b": 2.5}]

    def test_formatting_helpers(self):
        table = format_table(["x"], [[1]], title="t")
        assert "t" in table


class TestTable1:
    def test_rows_cover_requested_workloads(self):
        result = run_table1(SETTINGS, workload_names=("WT_10", "OD_100"))
        assert len(result.rows) == 2
        names = [row[0] for row in result.rows]
        assert names == ["WT_10", "OD_100"]
        assert len(result.headers) == len(result.rows[0])

    def test_built_cardinality_positive(self):
        result = run_table1(SETTINGS, workload_names=("WT_10",))
        row = result.row_dicts()[0]
        assert row["cardinality (built)"] > 0
        assert row["corpus tables"] > 0


class TestIndexGeneration:
    def test_report_shape(self):
        result = run_index_generation(SETTINGS, workload_names=("WT_10",))
        row = result.row_dicts()[0]
        assert row["corpus"] == "WT_10"
        assert row["super keys / row (B)"] <= row["super keys / cell (B)"]
        assert row["mate build (s)"] >= 0


class TestFigure4:
    def test_all_systems_reported(self):
        result = run_figure4(SETTINGS, workload_names=("WT_10",))
        row = result.row_dicts()[0]
        for system in ("mate", "scr", "mcr", "scr_josie", "mcr_josie"):
            assert f"{system} runtime (s)" in row
            assert row[f"{system} runtime (s)"] >= 0
        assert "speedup vs scr" in row


class TestTable2:
    def test_columns_per_hash_and_size(self):
        result = run_table2(
            SETTINGS,
            workload_names=("WT_10",),
            hash_functions=("bloom", "xash"),
            hash_sizes=(128,),
        )
        assert result.headers == ["query set", "scr (s)", "bloom/128 (s)", "xash/128 (s)"]
        assert len(result.rows) == 1

    def test_default_workloads_constant(self):
        assert len(DEFAULT_TABLE2_WORKLOADS) == 8


class TestTable3:
    def test_average_row_appended(self):
        result = run_table3(
            SETTINGS,
            workload_names=("WT_10",),
            hash_functions=("bloom", "xash"),
            hash_sizes=(128,),
        )
        assert result.rows[-1][0] == "Average"
        assert len(result.rows) == 2
        # precision cells are formatted "mean±std"
        assert "±" in result.rows[0][1]


class TestFigure5:
    def test_all_bars_present(self):
        result = run_figure5(SETTINGS, workload_name="WT_10")
        labels = [row[0] for row in result.rows]
        assert labels == [bar[0] for bar in FIGURE5_BARS]

    def test_ideal_system_has_no_false_positives(self):
        result = run_figure5(SETTINGS, workload_name="WT_10")
        ideal = result.row_dicts()[-1]
        assert ideal["variant"] == "Ideal system"
        assert ideal["FP rows"] == 0
        assert ideal["precision"] == pytest.approx(1.0)

    def test_unfiltered_baseline_not_better_than_full_xash(self):
        result = run_figure5(SETTINGS, workload_name="WT_10")
        rows = {row[0]: row[1] for row in result.rows}
        assert rows["SCR (no filter)"] <= rows["Xash (128 bit)"] + 1e-9


class TestFigure6:
    def test_key_sizes_reported(self):
        result = run_figure6(SETTINGS, key_sizes=(2, 3), systems=("xash", "scr"))
        assert [row[0] for row in result.rows] == [2, 3]
        assert "xash precision" in result.headers
        for row in result.row_dicts():
            assert 0.0 <= row["xash precision"] <= 1.0


class TestTopK:
    def test_rows_per_k(self):
        result = run_topk(
            SETTINGS, workload_name="WT_10", k_values=(2, 4), hash_functions=("xash",)
        )
        assert [row[0] for row in result.rows] == [2, 4]
        assert all(0.0 <= row[1] <= 1.0 for row in result.rows)


class TestInitColumn:
    def test_heuristic_order_and_bounds(self):
        result = run_init_column(SETTINGS, base_cardinality=60)
        values = {row[0]: row[1] for row in result.rows}
        assert set(values) == set(HEURISTIC_ORDER)
        assert values["best_case"] <= values["cardinality"] <= values["worst_case"]
        assert values["cardinality"] <= values["column_order"]
