#!/usr/bin/env python3
"""Run the repository's benchmark: ``python3 bench_e2e/run.py --workload NAME``.

One command generates the inputs from ``--seed``, runs a workload for
``--seconds``, checks every answer, and prints each metric by name with its
unit; the last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  ``--trace 0`` (default) measures
the end-to-end metrics with no instrumentation installed; ``--trace 1`` is
the separate traced run that yields the per-layer metrics.  The metric
names, units and bounds live in ``BENCHMARK.json`` at the repository root;
README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    # A checkout without the program (only BENCHMARK.json + bench_e2e/).
    sys.stderr.write(f"bench_e2e: no program to measure under {ROOT / 'src'}\n")
    raise SystemExit(2)
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench_e2e.config import WORKLOADS, smoke_config  # noqa: E402
from bench_e2e.measure import RunResult  # noqa: E402
from bench_e2e.spans import SpanRecorder, read_jsonl, self_times  # noqa: E402

#: Scratch space of a run; inside the checkout, listed in .gitignore.
WORK_ROOT = ROOT / ".bench_e2e_work"
#: Committed ``topk_digest`` per workload for one seed, at both scales.
DIGESTS_PATH = Path(__file__).resolve().parent / "baseline" / "digests.json"


@dataclass
class RunOptions:
    seed: int
    seconds: float
    traced: bool
    work_dir: str
    self_check: bool = False
    comparators: bool = True
    profile_out: str | None = None

    @contextmanager
    def profiled(self):
        """``--profile-out``: cProfile around the timed phase only."""
        if not self.profile_out:
            yield
            return
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            profiler.dump_stats(self.profile_out)


def load_contract() -> dict:
    """``BENCHMARK.json``: the single source of metric names and units."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool = False,
    self_check: bool = False,
    profile_out: str | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Run one workload once and return its :class:`RunResult`."""
    from bench_e2e import discover, http_serve, ingest_mixed

    runners = {
        "wt_discover": discover.run,
        "od_verify": discover.run,
        "http_serve": http_serve.run,
        "ingest_mixed": ingest_mixed.run,
    }
    config = WORKLOADS[name]
    if smoke:
        config = smoke_config(config)
    work_dir = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    options = RunOptions(
        seed=seed,
        seconds=seconds,
        traced=traced,
        work_dir=str(work_dir),
        self_check=self_check,
        comparators=not smoke,
        profile_out=profile_out,
    )
    recorder = SpanRecorder()
    try:
        result = runners[name](config, options, recorder)
    finally:
        recorder.remove_wrappers()
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()
    if out_dir and traced:
        recorder.write_jsonl(Path(out_dir) / f"{name}.spans.jsonl")
    check_digest(result, smoke)
    return result


def check_digest(result: RunResult, smoke: bool) -> None:
    """At the committed seed, the answers' digest must equal the committed one.

    The oracle accepts any exact top-k; the digest pins the very bytes
    (which tied table made the cut, which of several equal mappings is
    reported), the invariant ROADMAP.md asks every change to keep.
    """
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        committed = json.load(handle)
    if result.seed != committed["seed"]:
        return
    expected = committed["smoke" if smoke else "reference"].get(result.workload)
    result.attempted += 1
    if result.topk_digest != expected:
        result.fail(
            f"topk_digest {result.topk_digest} differs from the committed {expected}"
        )


def contract_metrics(result: RunResult, contract: dict) -> dict[str, dict]:
    """The run's metrics in contract order, each with its unit.

    Per-layer metrics a workload does not exercise read 0 (README.md lists
    which layer each workload touches); a missing end-to-end metric is an
    error, because every workload defines all of them.
    """
    section = "per_layer" if result.traced else "end_to_end"
    metrics = {}
    for entry in contract[section]:
        name = entry["name"]
        if name not in result.metrics and not result.traced:
            raise KeyError(f"{result.workload} did not report {name}")
        metrics[name] = {
            "value": float(result.metrics.get(name, 0.0)),
            "unit": entry["unit"],
        }
    unknown = sorted(set(result.metrics) - set(metrics))
    if unknown:
        raise KeyError(f"{result.workload} reported unknown metrics {unknown}")
    return metrics


def report(result: RunResult, metrics: dict[str, dict]) -> dict:
    """Print the human-readable block; return the machine-readable record."""
    mode = "traced (per-layer)" if result.traced else "end-to-end"
    print(f"== {result.workload}  seed={result.seed}  {mode}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    failed_share = result.failed / result.attempted if result.attempted else 1.0
    print(f"  {'failed_share':<40} {failed_share:>16.6g} ratio"
          f"   ({result.failed} of {result.attempted} operations)")
    print(f"  topk_digest {result.topk_digest}")
    for key, value in result.notes.items():
        print(f"  note {key}={value}")
    for reason in result.failures:
        print(f"  FAILED {reason}")
    return {
        "workload": result.workload,
        "seed": result.seed,
        "traced": result.traced,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def attach_self_times(record: dict, out_dir: str | None) -> dict:
    """Add a traced run's per-span self times (from its span file) to its
    record, as seconds per request, for ``compare.py``'s self-time table."""
    if out_dir and record["traced"]:
        spans = read_jsonl(Path(out_dir) / f"{record['workload']}.spans.jsonl")
        requests = len({span.request_id for span in spans} - {None}) or 1
        record["self_time_s_per_request"] = {
            name: seconds / requests
            for name, seconds in sorted(self_times(spans).items())
        }
    return record


def run_isolated(name: str, args, traced: bool, seconds: float) -> dict:
    """One run in a fresh interpreter, the way the driver runs them.

    ``--workload all`` and ``--repeat`` go through here so that an earlier
    run's peak RSS, garbage and warm caches cannot leak into the next.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(int(traced)),
    ]
    for flag, value in (("--smoke", args.smoke), ("--self-check", args.self_check)):
        if value:
            command.append(flag)
    for flag, value in (("--out", args.out), ("--profile-out", args.profile_out)):
        if value:
            command += [flag, value]
    completed = subprocess.run(
        command, capture_output=True, text=True, timeout=900, check=False
    )
    sys.stderr.write(completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{name}: the run printed no result (exit {completed.returncode})")
    print("\n".join(lines[:-1]))
    record = {"workload": name, "seed": args.seed, "traced": traced,
              **json.loads(lines[-1])}
    return attach_self_times(record, args.out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate traced run (per-layer metrics)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (for compare.py's statistics)")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and <workload>.spans.jsonl")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the tier-1 harness test's scale)")
    parser.add_argument("--self-check", action="store_true",
                        help="perturb one answer; the run must then exit non-zero")
    parser.add_argument("--profile-out", default=None,
                        help="write a cProfile of the timed phase to this file")
    args = parser.parse_args(argv)

    contract = load_contract()
    traced = bool(args.trace)
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if len(names) > 1 or args.repeat > 1:
        records = [
            run_isolated(name, args, traced, seconds)
            for name in names
            for _ in range(args.repeat)
        ]
    else:
        result = run_workload(
            names[0],
            seed=args.seed,
            seconds=seconds,
            traced=traced,
            smoke=args.smoke,
            self_check=args.self_check,
            profile_out=args.profile_out,
            out_dir=args.out,
        )
        record = report(result, contract_metrics(result, contract))
        records = [attach_self_times(record, args.out)]
    if args.out:
        from bench_e2e.compare import fingerprint

        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "results.json", "w", encoding="utf-8") as handle:
            json.dump({"fingerprint": fingerprint(), "runs": records}, handle, indent=1)
    correct = all(record["correct"] for record in records)
    if len(records) == 1:
        last = {key: records[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {
            "correct": correct,
            "attempted": sum(record["attempted"] for record in records),
            "failed": sum(record["failed"] for record in records),
            "runs": records,
        }
    sys.stdout.flush()
    print(json.dumps(last))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
