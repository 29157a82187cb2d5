"""Smoke tests: every example script must run end to end and tell its story.

The examples are part of the public deliverable; each one is executed in a
subprocess (so its ``__main__`` path is exercised exactly as a user would run
it) and its output is checked for the key facts the example is built around.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_example(name: str, timeout: int = 300) -> str:
    """Run one example script and return its stdout (failing the test on error)."""
    script = EXAMPLES_DIR / name
    assert script.exists(), f"example script missing: {script}"
    env_path = f"{SRC_DIR}"
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0, (
        f"{name} exited with {result.returncode}\nstderr:\n{result.stderr}"
    )
    return result.stdout


def test_all_examples_are_covered():
    """Every example script in examples/ has a dedicated smoke test below."""
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    covered = {
        "quickstart.py",
        "air_quality_enrichment.py",
        "movie_feature_enrichment.py",
        "index_maintenance.py",
        "beyond_joins.py",
        "csv_data_lake.py",
        "similarity_join.py",
        "composite_key_discovery.py",
        "batch_discovery_service.py",
        "live_ingest.py",
        "http_serving.py",
        "sketch_discovery.py",
    }
    assert scripts == covered


def test_quickstart_finds_figure1_table():
    output = run_example("quickstart.py")
    assert "top-2 joinable tables" in output
    assert "joinability=5" in output


def test_air_quality_enrichment():
    output = run_example("air_quality_enrichment.py")
    assert "joinab" in output.lower()


def test_movie_feature_enrichment():
    output = run_example("movie_feature_enrichment.py")
    assert "joinab" in output.lower()


def test_index_maintenance():
    """Every Section 5.4 edit, made through the session on a live index in
    a directory, leaves what a bulk build of the edited corpus serves, and
    the reopened directory fetches the same."""
    output = run_example("index_maintenance.py")
    steps = [line for line in output.splitlines() if line.startswith("  after ")]
    assert len(steps) == 8
    assert all(line.endswith("[matches a bulk build]") for line in steps)
    assert "projects     joinability=2" in output
    assert "reopened the directory (1 segment): 14 postings (identical)" in output


def test_beyond_joins():
    output = run_example("beyond_joins.py")
    assert output.strip()


def test_csv_data_lake_ranks_composite_join_above_distractor():
    output = run_example("csv_data_lake.py")
    assert "ingested 4 tables" in output
    assert "salaries" in output
    assert "joinability of the single-column distractor table: 0" in output


def test_similarity_join_finds_typo_table():
    output = run_example("similarity_join.py")
    assert "scraped_directory" in output
    assert "similarity joinability=3" in output
    assert "exact: 0" in output


def test_batch_discovery_service_matches_sequential():
    output = run_example("batch_discovery_service.py")
    assert "warm batch identical to the first: True" in output
    assert "identical to sequential discovery: True" in output


def test_live_ingest_streams_and_queries_concurrently():
    output = run_example("live_ingest.py")
    assert "ingested 120 tables" in output
    assert "concurrent top-1 joinability grew monotonically: True" in output
    assert "final top-3" in output
    assert "it left the answers: True" in output


def test_http_serving_round_trips_and_drains():
    output = run_example("http_serving.py")
    assert "served top-k identical to in-process engine: True" in output
    assert "server drained cleanly" in output


def test_sketch_discovery_prunes_without_losing_the_topk():
    output = run_example("sketch_discovery.py")
    assert "threshold=0 top-k identical to exact: True" in output
    assert "candidate tables after LSH prune: 4 (of 64)" in output
    assert "top-k identical to exact: True" in output


def test_composite_key_discovery_selects_timestamp_location():
    output = run_example("composite_key_discovery.py")
    assert "selected composite key: ['timestamp', 'location']" in output
    assert "weather_observations" in output


@pytest.mark.parametrize(
    "name",
    ["csv_data_lake.py", "similarity_join.py", "composite_key_discovery.py"],
)
def test_new_examples_import_cleanly(name):
    """The new examples can also be imported as modules (no side effects)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(name[:-3], EXAMPLES_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert hasattr(module, "main")
