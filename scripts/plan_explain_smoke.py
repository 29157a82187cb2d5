#!/usr/bin/env python
"""CLI ``--explain`` smoke test (run by the plan-equivalence CI job).

Generates a tiny corpus plus a query CSV, runs ``mate-repro discover`` with
``--explain`` for every planner mode on the requested index layout, and
asserts the plan output shows up with the expected shape (seed column,
per-column estimates, stage timings) while the top-k stays identical across
modes.

Usage::

    PYTHONPATH=src python scripts/plan_explain_smoke.py --layout columnar
    PYTHONPATH=src python scripts/plan_explain_smoke.py --layout legacy
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import re
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.cli import main as cli_main  # noqa: E402
from repro.config import INDEX_LAYOUTS  # noqa: E402
from repro.experiments.planner import _build_skew_scenario  # noqa: E402
from repro.experiments.runner import ExperimentSettings  # noqa: E402
from repro.index import active_kernel  # noqa: E402
from repro.storage import save_corpus_json  # noqa: E402


def run_cli(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"cli {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--layout", choices=INDEX_LAYOUTS, default="columnar")
    args = parser.parse_args()

    corpus, query = _build_skew_scenario(ExperimentSettings(corpus_scale=0.3))
    with tempfile.TemporaryDirectory(prefix="plan-smoke-") as tmp:
        corpus_path = Path(tmp) / "corpus.json"
        query_path = Path(tmp) / "query.csv"
        save_corpus_json(corpus, corpus_path)
        with query_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(query.table.columns)
            writer.writerows(list(row) for row in query.table.rows)

        rankings: dict[str, list[str]] = {}
        for mode in ("selector", "cost", "adaptive"):
            output = run_cli(
                [
                    "discover",
                    str(corpus_path),
                    str(query_path),
                    "--key", "hot", "cold",
                    "--k", "5",
                    "--layout", args.layout,
                    "--planner-mode", mode,
                    "--explain",
                ]
            )
            assert "plan: mode=" + mode in output, output
            assert "stages:" in output, output
            # Which path served the request is part of the explanation: the
            # request-level arrays need numpy and packed (columnar) blocks.
            path = re.search(r"execution path: (\w+)(?: \((.+)\))?", output)
            assert path is not None, output
            if args.layout == "columnar" and active_kernel() == "numpy":
                assert path.groups() == ("batch", None), output
            else:
                assert path.group(1) == "table" and path.group(2), output
            for stage in (
                "candidate_generation",
                "superkey_prefilter",
                "row_verification",
                "topk_maintenance",
            ):
                assert stage in output, f"{stage} missing from --explain output"
            rankings[mode] = re.findall(r"joinability=\s*(\d+)", output)
            seed = re.search(r"seed column '(\w+)'", output)
            assert seed is not None, output
            if mode != "selector":
                # The skew corpus makes the cost model flip off the hot column.
                assert seed.group(1) == "cold", output

        assert rankings["selector"] == rankings["cost"] == rankings["adaptive"], (
            f"plan modes disagreed on the top-k: {rankings}"
        )

    print(f"plan --explain smoke OK (layout={args.layout}; "
          "selector/cost/adaptive agree, stages and estimates printed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
