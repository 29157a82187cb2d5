#!/usr/bin/env python
"""Validate the stage statistics in exported ``BENCH_*.json`` artifacts.

Run by the CI ``bench-smoke`` job after ``scripts/export_bench_json.py``:
asserts that the benchmark JSON actually carries the prefilter stage
columns the performance trajectory is tracked by (``BENCH_columnar.json``
and ``BENCH_planner.json``), enforces the sketch-tier
recall-vs-speedup guard on ``BENCH_sketch.json`` (>= 5x candidate
reduction at recall >= 0.95, threshold=0 byte-identical to exact),
enforces the SQL-pushdown guard on ``BENCH_sql.json`` (top-k identical to
mate, zero Python-side posting fetches, runtime within 1.2x of the exact
engine), and enforces the idle-telemetry overhead guard on
``BENCH_telemetry.json`` (a default session, telemetry off, stays within
2% of the bare engine).

Usage::

    python scripts/check_bench_stage_stats.py --dir bench-artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The sketch prune must shrink the candidate universe at least this much.
MIN_SKETCH_CANDIDATE_REDUCTION = 5.0

#: Measured recall floor of the pruning sketch row.
MIN_SKETCH_RECALL = 0.95


def _load(directory: Path, name: str) -> dict:
    path = directory / f"BENCH_{name}.json"
    if not path.is_file():
        raise AssertionError(f"missing artifact {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_columnar(directory: Path) -> list[str]:
    payload = _load(directory, "columnar")
    rows = {row["layout"]: row for row in payload["row_dicts"]}
    if "columnar" not in rows:
        return [f"BENCH_columnar.json rows {sorted(rows)} are missing 'columnar'"]
    problems = []
    for column in ("prefilter s", "discover s"):
        try:
            value = float(rows["columnar"][column])
        except (KeyError, ValueError) as exc:
            problems.append(
                f"BENCH_columnar.json lacks a numeric {column!r} column: {exc}"
            )
            continue
        if value < 0:
            problems.append(f"BENCH_columnar.json {column!r} is negative")
    return problems


def check_planner(directory: Path) -> list[str]:
    payload = _load(directory, "planner")
    problems = []
    if "prefilter s" not in payload["headers"]:
        return ["BENCH_planner.json headers lack 'prefilter s'"]
    for row in payload["row_dicts"]:
        label = f"{row.get('scenario')}/{row.get('mode')}"
        try:
            prefilter = float(row["prefilter s"])
            runtime = float(row["runtime s"])
        except (KeyError, ValueError) as exc:
            problems.append(
                f"BENCH_planner.json {label} lacks numeric stage columns: {exc}"
            )
            continue
        if not 0.0 <= prefilter <= max(runtime, 0.0001):
            problems.append(
                f"BENCH_planner.json {label}: prefilter {prefilter}s "
                f"outside [0, runtime={runtime}s]"
            )
    return problems


def check_serve(directory: Path) -> list[str]:
    payload = _load(directory, "serve")
    problems = []
    for column in ("scatter s", "gather s", "identical"):
        if column not in payload["headers"]:
            problems.append(f"BENCH_serve.json headers lack {column!r}")
    if problems:
        return problems
    rows = {row["mode"]: row for row in payload["row_dicts"]}
    expected = {"threads", "process", "process+hedge"}
    if not expected <= set(rows):
        return [
            f"BENCH_serve.json rows {sorted(rows)} are missing "
            f"{sorted(expected - set(rows))}"
        ]
    for mode in expected:
        row = rows[mode]
        # The serving contract: every mode's top-k matched the thread engine.
        if row["identical"] != "yes":
            problems.append(
                f"BENCH_serve.json {mode!r}: top-k diverged from the thread "
                "engine ('identical' is not 'yes')"
            )
        for column in ("scatter s", "gather s"):
            try:
                value = float(row[column])
            except (KeyError, ValueError) as exc:
                problems.append(
                    f"BENCH_serve.json {mode!r} lacks a numeric "
                    f"{column!r} column: {exc}"
                )
                continue
            if value < 0:
                problems.append(
                    f"BENCH_serve.json {mode!r} {column!r} is negative"
                )
    return problems


def check_sketch(directory: Path) -> list[str]:
    payload = _load(directory, "sketch")
    rows = {row["mode"]: row for row in payload["row_dicts"]}
    expected = {"exact", "sketch0", "sketch"}
    if not expected <= set(rows):
        return [
            f"BENCH_sketch.json rows {sorted(rows)} are missing "
            f"{sorted(expected - set(rows))}"
        ]
    problems = []
    # The exhaustive tier (threshold=0) must match the exact engine exactly.
    for mode in ("sketch0", "sketch"):
        if rows[mode]["topk"] != "=":
            problems.append(
                f"BENCH_sketch.json {mode!r}: top-k diverged from the exact "
                "engine ('topk' is not '=')"
            )
    try:
        exact_candidates = int(rows["exact"]["candidates"])
        pruned_candidates = int(rows["sketch"]["candidates"])
        recall = float(rows["sketch"]["recall"])
        exact_runtime = float(rows["exact"]["runtime s"])
        sketch_runtime = float(rows["sketch"]["runtime s"])
    except (KeyError, ValueError) as exc:
        problems.append(f"BENCH_sketch.json lacks numeric guard columns: {exc}")
        return problems
    if pruned_candidates * MIN_SKETCH_CANDIDATE_REDUCTION > exact_candidates:
        problems.append(
            "sketch candidate-reduction regression: "
            f"{exact_candidates} -> {pruned_candidates} is below the "
            f"{MIN_SKETCH_CANDIDATE_REDUCTION}x guard"
        )
    if recall < MIN_SKETCH_RECALL:
        problems.append(
            f"sketch recall regression: {recall} is below the "
            f"{MIN_SKETCH_RECALL} floor"
        )
    if sketch_runtime >= exact_runtime:
        problems.append(
            f"sketch speedup regression: pruned run {sketch_runtime}s is "
            f"not faster than the exact run {exact_runtime}s"
        )
    return problems


#: The pushdown engine may cost at most this factor over the exact mate
#: engine at smoke scale (at real scale it should win; the smoke corpus is
#: too small for the per-query SQL compilation overhead to amortise fully).
MAX_SQL_RUNTIME_FACTOR = 1.2

#: Absolute slack on the pushdown runtime guard, in seconds: the smoke
#: totals are a few tens of ms, where one scheduler tick would otherwise
#: dominate the relative bound.
SQL_RUNTIME_SLACK_SECONDS = 0.05


def check_sql(directory: Path) -> list[str]:
    payload = _load(directory, "sql")
    by_key = {
        (row.get("scale"), row.get("engine")): row
        for row in payload["row_dicts"]
    }
    scales = sorted({scale for scale, _ in by_key})
    expected = {(scale, engine) for scale in scales for engine in ("mate", "sql")}
    if len(scales) != 2 or set(by_key) != expected:
        return [
            f"BENCH_sql.json rows {sorted(by_key)} do not cover "
            "(mate, sql) at two scales"
        ]
    problems = []
    for (scale, engine), row in by_key.items():
        # The contract: every row's top-k matched the mate engine exactly.
        if row.get("identical") != "yes":
            problems.append(
                f"BENCH_sql.json scale {scale} engine {engine!r}: top-k "
                "diverged from the mate engine ('identical' is not 'yes')"
            )
    for scale in scales:
        try:
            mate_runtime = float(by_key[(scale, "mate")]["runtime s"])
            sql_runtime = float(by_key[(scale, "sql")]["runtime s"])
            sql_fetched = int(by_key[(scale, "sql")]["pl fetched"])
            sql_scanned = int(by_key[(scale, "sql")]["rows scanned"])
            mate_fetched = int(by_key[(scale, "mate")]["pl fetched"])
        except (KeyError, ValueError) as exc:
            problems.append(
                f"BENCH_sql.json scale {scale} lacks numeric guard "
                f"columns: {exc}"
            )
            continue
        # The pushdown property: zero Python-side posting fetches, and the
        # database scanned exactly the volume the mate engine fetched.
        if sql_fetched != 0:
            problems.append(
                f"BENCH_sql.json scale {scale}: sql engine fetched "
                f"{sql_fetched} posting items into Python (must be 0)"
            )
        if sql_scanned != mate_fetched:
            problems.append(
                f"BENCH_sql.json scale {scale}: sql scanned {sql_scanned} "
                f"rows but mate fetched {mate_fetched}"
            )
        allowed = (
            mate_runtime * MAX_SQL_RUNTIME_FACTOR + SQL_RUNTIME_SLACK_SECONDS
        )
        if sql_runtime > allowed:
            problems.append(
                f"pushdown runtime regression at scale {scale}: sql "
                f"{sql_runtime:.4f}s exceeds {allowed:.4f}s "
                f"({MAX_SQL_RUNTIME_FACTOR}x mate {mate_runtime:.4f}s "
                f"+ {SQL_RUNTIME_SLACK_SECONDS}s slack)"
            )
    return problems


#: Idle-telemetry ceiling: a default session (telemetry constructed but
#: tracing off) may cost at most this factor over the bare engine.
MAX_IDLE_TELEMETRY_OVERHEAD = 1.02

#: Absolute slack on the idle-overhead guard, in seconds: at smoke scale
#: the totals are a few ms, where a single scheduler tick would otherwise
#: dominate the 2% relative bound.
IDLE_TELEMETRY_SLACK_SECONDS = 0.002


def check_telemetry(directory: Path) -> list[str]:
    payload = _load(directory, "telemetry")
    rows = {row["mode"]: row for row in payload["row_dicts"]}
    expected = {"engine_direct", "session_idle", "session_tracing"}
    if not expected <= set(rows):
        return [
            f"BENCH_telemetry.json rows {sorted(rows)} are missing "
            f"{sorted(expected - set(rows))}"
        ]
    problems = []
    try:
        direct = float(rows["engine_direct"]["total s"])
        idle = float(rows["session_idle"]["total s"])
        tracing = float(rows["session_tracing"]["total s"])
        spans = int(rows["session_tracing"]["spans"])
    except (KeyError, ValueError) as exc:
        problems.append(f"BENCH_telemetry.json lacks numeric guard columns: {exc}")
        return problems
    if min(direct, idle, tracing) <= 0:
        problems.append("BENCH_telemetry.json has a non-positive total")
        return problems
    allowed = direct * MAX_IDLE_TELEMETRY_OVERHEAD + IDLE_TELEMETRY_SLACK_SECONDS
    if idle > allowed:
        problems.append(
            "idle telemetry overhead regression: session_idle "
            f"{idle:.6f}s exceeds {allowed:.6f}s "
            f"({MAX_IDLE_TELEMETRY_OVERHEAD}x engine_direct {direct:.6f}s "
            f"+ {IDLE_TELEMETRY_SLACK_SECONDS}s slack)"
        )
    # Tracing must actually have produced spans, or the "overhead" rows
    # compared nothing.
    if spans <= 0:
        problems.append(
            "BENCH_telemetry.json session_tracing exported no spans"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--dir",
        type=Path,
        default=Path("."),
        help="directory holding the BENCH_*.json artifacts",
    )
    args = parser.parse_args(argv)
    problems = (
        check_columnar(args.dir)
        + check_planner(args.dir)
        + check_serve(args.dir)
        + check_sketch(args.dir)
        + check_sql(args.dir)
        + check_telemetry(args.dir)
    )
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print(
        "bench stage stats OK: prefilter columns present, "
        "serving top-k identical, sketch prune within the "
        "recall/speedup guard, sql pushdown identical with zero Python "
        "fetches and within the runtime guard, idle telemetry within the "
        "overhead guard"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
