#!/usr/bin/env python
"""Export machine-readable benchmark results as ``BENCH_<name>.json``.

Runs the registered smoke benchmarks (scaled via the same ``MATE_BENCH_*``
environment variables the pytest harness honours) and writes one JSON file
per benchmark with the run's scale knobs, wall time, result rows, and notes —
the artifacts the CI ``bench-smoke`` job uploads so the performance
trajectory of the repository is recorded per commit.

Usage::

    PYTHONPATH=src python scripts/export_bench_json.py               # all
    PYTHONPATH=src python scripts/export_bench_json.py columnar      # one
    PYTHONPATH=src python scripts/export_bench_json.py --out-dir ci/
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.api.schema import (  # noqa: E402  (sys.path setup must run first)
    KIND_BENCHMARK,
    json_envelope,
)
from repro.experiments import (  # noqa: E402
    ExperimentResult,
    ExperimentSettings,
    run_columnar,
    run_ingest,
    run_planner,
    run_pushdown,
    run_serving,
    run_sketch,
    run_telemetry,
)


def _bench_columnar(settings: ExperimentSettings) -> ExperimentResult:
    return run_columnar(settings)


def _bench_ingest(settings: ExperimentSettings) -> ExperimentResult:
    return run_ingest(settings)


def _bench_planner(settings: ExperimentSettings) -> ExperimentResult:
    return run_planner(settings)


def _bench_serve(settings: ExperimentSettings) -> ExperimentResult:
    return run_serving(settings, num_shards=2)


def _bench_sketch(settings: ExperimentSettings) -> ExperimentResult:
    return run_sketch(settings)


def _bench_sql(settings: ExperimentSettings) -> ExperimentResult:
    return run_pushdown(settings)


def _bench_telemetry(settings: ExperimentSettings) -> ExperimentResult:
    return run_telemetry(settings)


#: name -> callable(settings) -> ExperimentResult
BENCHMARKS = {
    "columnar": _bench_columnar,
    "ingest": _bench_ingest,
    "planner": _bench_planner,
    "serve": _bench_serve,
    "sketch": _bench_sketch,
    "sql": _bench_sql,
    "telemetry": _bench_telemetry,
}


def bench_settings_from_env() -> ExperimentSettings:
    """Build experiment settings from the ``MATE_BENCH_*`` environment."""
    return ExperimentSettings(
        seed=int(os.environ.get("MATE_BENCH_SEED", "7")),
        num_queries=int(os.environ.get("MATE_BENCH_QUERIES", "2")),
        corpus_scale=float(os.environ.get("MATE_BENCH_CORPUS_SCALE", "0.3")),
        k=int(os.environ.get("MATE_BENCH_K", "10")),
    )


def export_benchmark(
    name: str, settings: ExperimentSettings, out_dir: Path
) -> Path:
    """Run one registered benchmark and write its ``BENCH_<name>.json``."""
    runner = BENCHMARKS[name]
    started = time.perf_counter()
    result = runner(settings)
    wall_seconds = time.perf_counter() - started
    # The same versioned envelope the CLI's --json output uses (one shared
    # response schema across every machine-readable artifact of the repo).
    payload = json_envelope(KIND_BENCHMARK, {
        "name": name,
        "title": result.name,
        "wall_seconds": round(wall_seconds, 4),
        "corpus_scale": settings.corpus_scale,
        "seed": settings.seed,
        "num_queries": settings.num_queries,
        "k": settings.k,
        "unix_time": int(time.time()),
        "headers": result.headers,
        "rows": [[str(cell) for cell in row] for row in result.rows],
        "row_dicts": [
            {key: str(value) for key, value in row.items()}
            for row in result.row_dicts()
        ],
        "notes": list(result.notes),
    })
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "benchmarks",
        nargs="*",
        metavar="BENCH",
        help=f"benchmarks to export (default: all of {', '.join(sorted(BENCHMARKS))})",
    )
    parser.add_argument(
        "--out-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory the BENCH_*.json files are written to",
    )
    args = parser.parse_args(argv)
    names = args.benchmarks or sorted(BENCHMARKS)
    unknown = [name for name in names if name not in BENCHMARKS]
    if unknown:
        parser.error(
            f"unknown benchmark(s) {', '.join(unknown)}; "
            f"registered: {', '.join(sorted(BENCHMARKS))}"
        )
    settings = bench_settings_from_env()
    for name in names:
        path = export_benchmark(name, settings, args.out_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
