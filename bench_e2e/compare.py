#!/usr/bin/env python3
"""Compare two benchmark result files: ``compare.py A.json B.json``.

Both files are ``results.json`` documents written by ``run.py --out DIR``
(``--repeat N`` gives the statistics something to work with); ``A`` is the
baseline (for instance ``bench_e2e/baseline/end_to_end.json``), ``B`` the
candidate.  For every workload and metric the tool prints count / mean /
median / p5 / p95 over the repeats of each side, and for end-to-end metrics
the verdict against the metric's bound in ``BENCHMARK.json``:

* ``within``     — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (inter-quartile
  distance over the median) exceeds the bound, so the comparison cannot tell.

``failed_share`` (failed / attempted operations, summed over a side's runs)
is printed per workload; any failed or incorrect operation in B is a
regression whatever the timings say.  Per-layer (traced) results have no
bound: they are printed as a delta table in which a ``count`` must repeat
exactly (``same`` / ``differs``, or ``varies`` when a side's own repeats
disagree), followed by the per-span self-time deltas used to walk a
regression to a layer.  The exit code is non-zero when any end-to-end metric
regressed or B failed an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_e2e.measure import percentile, ratio  # noqa: E402


def fingerprint() -> dict[str, object]:
    """What the numbers were measured on (stored beside every result)."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        from repro.index.kernels import active_kernel

        kernel = active_kernel()
    except ImportError:
        kernel = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "active_kernel": kernel,
        "git_commit": commit,
    }


def metric_stats(values: list[float]) -> dict[str, float]:
    """count / mean / median / p5 / p95 of one metric's repeats."""
    return {
        "count": len(values),
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "p5": percentile(values, 0.05),
        "p95": percentile(values, 0.95),
    }


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median (range when under 4 runs)."""
    center = statistics.median(values)
    if center == 0 or len(values) < 2:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(center)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / abs(center)


def collect(document: dict) -> dict[tuple[str, bool, str], list[float]]:
    """(workload, traced, metric) -> values over the document's runs."""
    values: dict[tuple[str, bool, str], list[float]] = {}
    for run in document["runs"]:
        for name, entry in run["metrics"].items():
            key = (run["workload"], bool(run["traced"]), name)
            values.setdefault(key, []).append(float(entry["value"]))
    return values


def verdict(
    base: list[float], candidate: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict and by how much the candidate's median is worse."""
    base_median = statistics.median(base)
    candidate_median = statistics.median(candidate)
    if base_median == 0:
        return "within", 0.0
    change = (candidate_median - base_median) / abs(base_median)
    worse = change if better == "lower" else -change
    if max(spread(base), spread(candidate)) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "within"), worse


def count_verdict(base: list[float], candidate: list[float]) -> str:
    """Whether a per-layer count repeated exactly between the two sides."""
    if len(set(base)) > 1 or len(set(candidate)) > 1:
        return "varies"
    return "same" if base[0] == candidate[0] else "differs"


def failures(document: dict) -> dict[str, tuple[int, int]]:
    """workload -> (failed, attempted) summed over the document's runs."""
    totals: dict[str, tuple[int, int]] = {}
    for run in document["runs"]:
        failed, attempted = totals.get(run["workload"], (0, 0))
        # An incorrect run counts at least one failure even if it lost count.
        run_failed = max(run["failed"], 0 if run["correct"] else 1)
        totals[run["workload"]] = (failed + run_failed, attempted + run["attempted"])
    return totals


def self_time_rows(document: dict) -> dict[tuple[str, str], list[float]]:
    """(workload, span name) -> self seconds per request over traced runs."""
    rows: dict[tuple[str, str], list[float]] = {}
    for run in document["runs"]:
        for name, seconds in run.get("self_time_s_per_request", {}).items():
            rows.setdefault((run["workload"], name), []).append(seconds)
    return rows


def compare(base_doc: dict, candidate_doc: dict, contract: dict) -> int:
    bounds = {entry["name"]: entry for entry in contract["end_to_end"]}
    layers = {entry["name"]: entry for entry in contract["per_layer"]}
    base, candidate = collect(base_doc), collect(candidate_doc)
    for side, document in (("A", base_doc), ("B", candidate_doc)):
        print(f"{side}: {json.dumps(document.get('fingerprint', {}))}")

    failing = 0
    base_failures, candidate_failures = failures(base_doc), failures(candidate_doc)
    print(f"\n{'workload':<14}{'failed_share A':>16}{'failed_share B':>16}")
    for workload, (failed, attempted) in sorted(candidate_failures.items()):
        a_failed, a_attempted = base_failures.get(workload, (0, 0))
        flag = "  FAILED OPERATIONS in B" if failed else ""
        failing += bool(failed)
        print(
            f"{workload:<14}{ratio(a_failed, a_attempted):>16.6g}"
            f"{ratio(failed, attempted):>16.6g}{flag}"
        )

    regressions = 0
    print(
        f"\n{'workload':<14}{'metric':<36}{'side':<5}{'count':>6}{'mean':>13}"
        f"{'median':>13}{'p5':>13}{'p95':>13}  verdict"
    )
    for key in sorted(set(base) & set(candidate)):
        workload, traced, name = key
        entry = bounds.get(name)
        if traced or entry is None:
            continue
        outcome, worse = verdict(
            base[key], candidate[key], entry["better"], entry["bound"]
        )
        regressions += outcome == "regressed"
        for side, values in (("A", base[key]), ("B", candidate[key])):
            stats = metric_stats(values)
            tail = f"  spread {spread(values):.1%}"
            if side == "B":
                tail += f"  {outcome} ({worse:+.1%} worse, bound {entry['bound']:.0%})"
            print(
                f"{workload:<14}{name:<36}{side:<5}{stats['count']:>6}"
                f"{stats['mean']:>13.5g}{stats['median']:>13.5g}"
                f"{stats['p5']:>13.5g}{stats['p95']:>13.5g}{tail}"
            )

    traced_keys = sorted(k for k in set(base) & set(candidate) if k[1])
    differing = 0
    if traced_keys:
        print("\nper-layer deltas (traced runs, medians; no bound applies)")
        print(
            f"{'workload':<14}{'metric':<40}{'unit':<7}{'A':>14}{'B':>14}"
            f"{'delta':>10}  counts"
        )
        for key in traced_keys:
            workload, _, name = key
            a = statistics.median(base[key])
            b = statistics.median(candidate[key])
            if a == 0 and b == 0:
                continue
            delta = f"{(b - a) / abs(a):+.1%}" if a else "new"
            unit = layers.get(name, {}).get("unit", "")
            exact = count_verdict(base[key], candidate[key]) if unit == "count" else ""
            differing += exact == "differs"
            print(
                f"{workload:<14}{name:<40}{unit:<7}{a:>14.6g}{b:>14.6g}"
                f"{delta:>10}  {exact}"
            )

    base_self, candidate_self = self_time_rows(base_doc), self_time_rows(candidate_doc)
    shared = sorted(set(base_self) & set(candidate_self))
    if shared:
        print("\nself time per request (traced runs, medians): duration minus child spans")
        print(f"{'workload':<14}{'span':<36}{'A ms':>12}{'B ms':>12}{'delta ms':>12}")
        for key in shared:
            a = 1e3 * statistics.median(base_self[key])
            b = 1e3 * statistics.median(candidate_self[key])
            print(f"{key[0]:<14}{key[1]:<36}{a:>12.4f}{b:>12.4f}{b - a:>+12.4f}")

    print(
        f"\n{regressions} end-to-end metric(s) regressed; {failing} workload(s) with "
        f"failed operations in B; {differing} per-layer count(s) differ"
    )
    return 1 if regressions or failing else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("baseline", type=Path, help="results.json of the parent (A)")
    parser.add_argument("candidate", type=Path, help="results.json of the change (B)")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        base_doc = json.load(handle)
    with open(args.candidate, encoding="utf-8") as handle:
        candidate_doc = json.load(handle)
    return compare(base_doc, candidate_doc, contract)


if __name__ == "__main__":
    raise SystemExit(main())
