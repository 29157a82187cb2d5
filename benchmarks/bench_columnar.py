"""Benchmark: the packed posting-list layout and its prefilter.

Times the fetch and filter of the packed struct-of-arrays layout
(`repro.index.columnar`) and the prefilter stage's share of discovery — the
smoke benchmark the CI bench job tracks via ``scripts/export_bench_json.py``.
"""

from repro.experiments import run_columnar

from .common import bench_settings, publish


def test_columnar_layout(run_once):
    settings = bench_settings(default_queries=2, default_scale=0.3)
    result = run_once(run_columnar, settings)
    publish(result, "columnar")

    by_layout = {row["layout"]: row for row in result.row_dicts()}
    columnar = by_layout["columnar"]
    assert 0.0 <= float(columnar["prefilter s"]) <= float(columnar["discover s"])
