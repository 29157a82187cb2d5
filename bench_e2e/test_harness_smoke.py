"""Tier-1 smoke test of the benchmark harness (``--smoke`` scale, seconds).

Guards the contract between ``BENCHMARK.json`` and the code: every workload
named there runs, every metric named there is emitted with its unit, the
correctness gate trips on a perturbed answer, and no server or worker
process outlives a run.  It measures nothing — numbers at this scale mean
nothing.
"""

from __future__ import annotations

import json
import os
import random
import re
import time
from pathlib import Path

import pytest

from bench_e2e import compare
from bench_e2e import run as bench_run
from bench_e2e.config import InputSpec, QueryClass
from bench_e2e.inputs import generate_from_streams
from bench_e2e.measure import (
    REFERENCE_KERNEL_S,
    MachineSpeed,
    per_operation,
    process_tree,
)
from bench_e2e.spans import SpanRecorder, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]


def test_contract_names_are_well_formed():
    names = [entry["name"] for entry in CONTRACT["workloads"]]
    for section in ("end_to_end", "per_layer"):
        names += [entry["name"] for entry in CONTRACT[section]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    assert set(WORKLOADS) == set(bench_run.WORKLOADS)
    assert "setup_s" in [entry["name"] for entry in CONTRACT["end_to_end"]]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("traced", [False, True], ids=["end_to_end", "per_layer"])
def test_every_metric_is_emitted_and_no_child_survives(workload, traced):
    result = bench_run.run_workload(
        workload, seed=7, seconds=0.05, traced=traced, smoke=True
    )
    assert result.failures == []
    assert result.correct and result.attempted > 0
    metrics = bench_run.contract_metrics(result, CONTRACT)
    section = CONTRACT["per_layer" if traced else "end_to_end"]
    assert list(metrics) == [entry["name"] for entry in section]
    for entry in section:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
    if not traced:
        # End-to-end metrics are defined on every workload and never 0.
        assert all(entry["value"] > 0 for entry in metrics.values()), metrics
    assert process_tree(os.getpid()) == [os.getpid()], "a child process outlived the run"
    assert not (bench_run.WORK_ROOT / f"{workload}-{os.getpid()}").exists()


@pytest.mark.parametrize("workload", ["wt_discover", "ingest_mixed"])
def test_perturbed_answer_trips_the_gate(workload):
    result = bench_run.run_workload(
        workload, seed=7, seconds=0.05, traced=False, smoke=True, self_check=True
    )
    assert not result.correct
    assert any("self-check" in reason for reason in result.failures)
    assert any("topk_digest" in reason for reason in result.failures)


def test_self_check_makes_the_command_exit_non_zero(capsys):
    code = bench_run.main(
        ["--workload", "od_verify", "--smoke", "--seconds", "0.05", "--self-check"]
    )
    assert code != 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1


def test_span_self_time_and_folding():
    recorder = SpanRecorder()

    class Layer:
        def outer(self):
            for _ in range(3):
                self.inner()

        def inner(self):
            return None

    with recorder.installed(
        [
            (Layer, "outer", "outer", {"request_root": True}),
            (Layer, "inner", "inner", {"fold": True}),
        ]
    ):
        Layer().outer()
    assert recorder.calls("inner") == 3 and recorder.calls("outer") == 1
    outer = next(span for span in recorder.spans if span.name == "outer")
    inner = next(span for span in recorder.spans if span.name == "inner")
    assert inner.parent_id == outer.span_id and inner.request_id == outer.request_id
    assert self_times(recorder.spans)["outer"] == pytest.approx(
        outer.duration - inner.duration
    )
    # The wrappers are gone once the block ends.
    assert not hasattr(Layer.outer, "__wrapped__")


def test_machine_speed_takes_its_share_and_divides_by_the_phase():
    speed = MachineSpeed()
    speed.sample(3)  # an earlier phase must not count
    speed.begin()
    time.sleep(0.1)
    speed.tick()
    phase = speed.slices[3:]
    # A tenth of the phase's time, give or take one slice (~5 ms, quiet).
    assert 0.01 <= sum(phase) <= 0.1
    assert speed.slowdown() == pytest.approx(
        sum(phase) / len(phase) / REFERENCE_KERNEL_S
    )
    assert per_operation([[3.0, 1.0], [1.0, 5.0]], min) == [1.0, 1.0]


def test_generation_draws_what_the_library_generators_draw():
    """inputs.py copies ``add_random_table`` and ``build_workload``'s planting
    loop (to split the shape and value streams) and swaps in a memoising
    ``zipf_choice``: on one shared stream all three must equal the library."""
    from repro.datagen.corpora import PROFILES
    from repro.datagen.workload import WorkloadSpec, build_workload

    spec = InputSpec(
        profile="webtables",
        base_scale=0.03,
        classes=(QueryClass(count=2, key_size=2, cardinality=6),),
        joinable_per_query=2,
        distractors_per_query=1,
    )
    stream = random.Random(11)
    ours = generate_from_streams(
        spec, "drift", shape_rng=stream, value_rng=stream, plant_rng=random.Random(11)
    )
    theirs = build_workload(
        WorkloadSpec(
            name="drift",
            corpus_profile=PROFILES["webtables"],
            num_queries=2,
            cardinality=6,
            key_size=2,
            joinable_tables_per_query=2,
            distractor_tables_per_query=1,
            corpus_scale=0.03,
        ),
        seed=11,
    )

    def tables(corpus):
        return [(t.table_id, t.name, list(t.columns), t.rows) for t in corpus]

    assert tables(ours.corpus) == tables(theirs.corpus)
    assert [
        (q.table.name, list(q.table.columns), q.table.rows, list(q.key_columns))
        for q in ours.queries
    ] == [
        (q.table.name, list(q.table.columns), q.table.rows, list(q.key_columns))
        for q in theirs.queries
    ]
    assert ours.planted == theirs.planted


def _document(value: float, failed: int = 0, count: float = 5.0) -> dict:
    def run(traced, metrics):
        return {
            "workload": "wt_discover", "seed": 7, "traced": traced,
            "correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
        }

    return {
        "runs": [run(False, {"discover_p50_ms": value * scale}) for scale in (1.0, 1.01, 0.99)]
        + [run(True, {"core.rows_checked": count})]
    }


def test_compare_gates_on_regressions_failures_and_noise(capsys):
    assert compare.compare(_document(50.0), _document(51.0), CONTRACT) == 0
    assert compare.compare(_document(50.0), _document(80.0), CONTRACT) == 1
    assert "regressed" in capsys.readouterr().out
    # A faster candidate that failed an operation is still rejected.
    assert compare.compare(_document(50.0), _document(40.0, failed=1), CONTRACT) == 1
    assert "FAILED OPERATIONS" in capsys.readouterr().out
    # A noisy candidate is unresolved, not regressed; a moved count is flagged.
    noisy = _document(80.0, count=6.0)
    noisy["runs"][1]["metrics"]["discover_p50_ms"]["value"] = 40.0
    assert compare.compare(_document(50.0), noisy, CONTRACT) == 0
    out = capsys.readouterr().out
    assert "unresolved" in out and "differs" in out
