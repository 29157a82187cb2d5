#!/usr/bin/env python
"""CLI ``--explain`` smoke test (run by the plan-equivalence CI job).

Generates a tiny corpus plus a query CSV, runs ``mate-repro discover`` with
``--explain`` for every planner mode, and asserts the plan output shows up
with the expected shape (seed column, per-column estimates, the
verification pass's pairs, the table filters' counts, stage timings) while
the top-k stays identical across modes.

Usage::

    PYTHONPATH=src python scripts/plan_explain_smoke.py
"""

from __future__ import annotations

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
from repro.experiments.scenarios import _build_skew_scenario  # noqa: E402
from repro.experiments.runner import ExperimentSettings  # noqa: E402
from repro.storage import save_corpus_json  # noqa: E402


def run_cli(argv: list[str]) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"cli {' '.join(argv)} exited with {code}")
    return buffer.getvalue()


def main() -> int:
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
                    "--planner-mode", mode,
                    "--explain",
                ]
            )
            assert "plan: mode=" + mode in output, output
            assert "stages:" in output, output
            # The size and the waste of the one verification pass are part
            # of the explanation.
            pairs = re.search(
                r"verified (\d+) pairs in one pass \((\d+) discarded by table "
                r"filters or the deadline\)",
                output,
            )
            assert pairs is not None, output
            verified, discarded = map(int, pairs.groups())
            assert 0 <= discarded <= verified, output
            # Stage calls count requests, not tables: the table filters
            # have their own line.
            tables = re.search(
                r"(\d+) candidate tables: (\d+) evaluated, (\d+) pruned by "
                r"rule 1, (\d+) abandoned by rule 2",
                output,
            )
            assert tables is not None, output
            candidates, evaluated, pruned, abandoned = map(int, tables.groups())
            assert evaluated + pruned <= candidates, output
            assert abandoned <= evaluated, output
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

    print("plan --explain smoke OK (selector/cost/adaptive agree, stages, "
          "estimates, verified pairs and table filters printed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
