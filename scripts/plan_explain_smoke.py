#!/usr/bin/env python
"""CLI ``--explain`` smoke test (run by the plan-equivalence CI job).

Generates a tiny corpus plus a query CSV, runs ``mate-repro discover`` with
``--explain`` in planner modes ``selector`` and ``cost``, and asserts the
plan output shows up with the expected shape (seed column, each key
column's probe values and exact postings, the verification pass's pairs,
the table filters' counts, stage timings) while the top-k stays identical
across modes.  The removed mode ``adaptive`` must be refused.

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
        for mode in ("selector", "cost"):
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
            columns = dict(
                re.findall(r"column '(\w+)': (\d+ probe values, \d+ postings)", output)
            )
            if mode == "cost":
                # The skew corpus makes the exact counts flip off the hot
                # column; every key column's counts are printed.
                assert seed.group(1) == "cold", output
                assert columns == {
                    "cold": "48 probe values, 108 postings",
                    "hot": "4 probe values, 228 postings",
                }, output
                assert "fetched 108 PL items" in output, output
            else:
                assert columns == {}, output
                assert "not counted" in output, output

        assert rankings["selector"] == rankings["cost"], (
            f"plan modes disagreed on the top-k: {rankings}"
        )

        # The removed mode is refused by the argument parser.
        refusal = io.StringIO()
        with contextlib.redirect_stderr(refusal):
            try:
                run_cli(
                    [
                        "discover", str(corpus_path), str(query_path),
                        "--key", "hot", "cold", "--planner-mode", "adaptive",
                    ]
                )
            except SystemExit as exc:
                assert exc.code == 2, exc.code
            else:
                raise AssertionError("--planner-mode adaptive was accepted")
        assert "invalid choice: 'adaptive'" in refusal.getvalue(), refusal.getvalue()

    print("plan --explain smoke OK (selector/cost agree, adaptive refused, "
          "stages, exact counts, verified pairs and table filters printed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
