"""The two in-process closed-loop workloads: ``wt_discover`` and ``od_verify``.

One client thread calls ``DiscoverySession.discover`` (``engine="mate"``,
default cache and hash size) over the workload's query set, pass after
pass, until ``--seconds`` are used up.  Both workloads share this code and
differ only in their inputs (see :mod:`bench_e2e.config`).
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path
from statistics import fmean

from repro import DiscoveryRequest, DiscoverySession, MateConfig
from repro.config import ServiceConfig
from repro.datamodel import TableCorpus
from repro.index import build_index
from repro.storage import write_segment

from . import layers
from .config import K, WorkloadConfig
from .inputs import (
    WorkloadInputs,
    check_result,
    generate_inputs,
    non_empty_cells,
    result_rows,
    self_check,
    topk_digest,
)
from .measure import (
    MachineSpeed,
    RunResult,
    cpu_seconds,
    median,
    peak_rss_mb,
    per_operation,
    percentile,
    ratio,
)
from .spans import SpanRecorder

#: Timed passes never stop before this many, whatever ``--seconds`` says.
MIN_PASSES = 2
#: Slices of the corpus that are bulk-built between the timed requests.
BUILD_SLICES = 4


def build_slices(corpus) -> list[TableCorpus]:
    """``BUILD_SLICES`` evenly spaced slices of a 25th of the corpus each.

    ``index_tables_per_s`` is ``build_index`` over these, timed between the
    workload's passes like a request: the three whole-corpus builds of
    the set-up are seconds long, and what the machine did during one is not
    what the kernel slices before and after it saw (their ratio spread by
    3-26 % over ten runs; slices of ~70 ms interleaved with the kernel
    follow it, README.md "Steadiness").
    """
    tables = list(corpus)
    size = max(1, round(len(tables) / 25))
    stride = len(tables) // BUILD_SLICES
    return [
        TableCorpus(
            name=f"slice_{index}",
            tables=tables[index * stride : index * stride + size],
        )
        for index in range(BUILD_SLICES)
    ]


def timed_build(tables: TableCorpus) -> float:
    started = time.perf_counter()
    build_index(tables, config=MateConfig())
    return time.perf_counter() - started


def discover_targets(session: DiscoverySession) -> list[tuple]:
    """Wrappers of a traced in-process pass: one per layer boundary."""
    from repro.core.discovery import MateDiscovery
    from repro.plan import stages
    from repro.plan.executor import Executor
    from repro.plan.planner import Planner

    fold = {"fold": True}
    return [
        (DiscoverySession, "discover", "api.session.discover", {"request_root": True}),
        (MateDiscovery, "discover", "core.engine.discover", {}),
        (Planner, "plan", "plan.planner.plan", {}),
        (Executor, "execute", "plan.executor.execute", {}),
        (stages.CandidateGeneration, "run", "plan.stage.candidate_generation", fold),
        (stages.SuperKeyPrefilter, "run", "plan.stage.superkey_prefilter", fold),
        (stages.RowVerification, "run", "plan.stage.row_verification", fold),
        (stages.TopKMaintenance, "run", "plan.stage.topk_maintenance", fold),
        (session.base_index, "fetch_batch", "index.fetch_batch", {}),
    ]


class DiscoverRun:
    """State of one run: inputs, the session under test, reference answers."""

    def __init__(self, config: WorkloadConfig, options, result: RunResult):
        self.config = config
        self.options = options
        self.result = result
        self.inputs: WorkloadInputs = generate_inputs(
            config.inputs, options.seed, config.name
        )
        self.requests = [
            DiscoveryRequest(query=query, k=K) for query in self.inputs.queries
        ]
        #: Query order of every pass: fixed per seed, so cache behaviour is.
        self.order = list(range(len(self.requests)))
        random.Random(f"{options.seed}:{config.name}:order").shuffle(self.order)
        self.session: DiscoverySession | None = None
        self.index = None
        self.reference: dict[int, list] = {}
        self.build_seconds: list[float] = []
        self.setup_seconds: list[float] = []
        self.segment_bytes = 0
        self.slices = build_slices(self.inputs.corpus)
        #: Per timed pass, the build seconds of each slice.
        self.slice_seconds: list[list[float]] = []

    # ------------------------------------------------------------------
    # Set-up: index build + persist + session + first request
    # ------------------------------------------------------------------
    def set_up(self, repeats: int, speed: MachineSpeed | None = None) -> None:
        """Build, persist, open a session, answer one request — ``repeats``
        times.  With ``speed`` each repeat's seconds are recorded at
        reference speed (kernel slices taken just before and after it)."""
        segment = Path(self.options.work_dir) / "corpus.seg"
        for _ in range(repeats):
            # Drop the previous index first: two resident at once would be
            # the benchmark's doing and would show in peak_rss_mb.
            self.close()
            if speed is not None:
                speed.begin()
                speed.sample(speed.AROUND)
            started = time.perf_counter()
            self.index = build_index(self.inputs.corpus, config=MateConfig())
            build_seconds = time.perf_counter() - started
            write_segment(self.index, segment, fsync=False)
            self.session = DiscoverySession(self.inputs.corpus, self.index)
            self.session.discover(self.requests[self.order[0]])
            setup_seconds = time.perf_counter() - started
            slowdown = 1.0
            if speed is not None:
                speed.sample(speed.AROUND)
                slowdown = speed.slowdown()
            self.build_seconds.append(build_seconds / slowdown)
            self.setup_seconds.append(setup_seconds / slowdown)
        self.segment_bytes = segment.stat().st_size

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    def run_pass(
        self,
        engine: str | None = None,
        keep: list | None = None,
        order: list[int] | None = None,
        speed: MachineSpeed | None = None,
    ) -> tuple[float, list[float]]:
        """One pass over every query (or ``order``); returns (wall, latencies).

        With ``speed`` (the end-to-end timed passes) kernel slices run
        between requests and the corpus slices are bulk-built after the
        last one — outside the requests' own time, inside the pass wall.
        Every answer is compared with the reference answer of its query
        (the oracle-checked cold pass); a differing or incomplete answer is
        a failed operation.
        """
        session = self.session
        requests = self.requests
        if engine is not None:
            requests = [
                DiscoveryRequest(query=request.query, k=K, engine=engine)
                for request in requests
            ]
        latencies: list[float] = []
        answers = []
        pass_started = time.perf_counter()
        for query_index in order or self.order:
            started = time.perf_counter()
            answer = session.discover(requests[query_index])
            latencies.append(time.perf_counter() - started)
            answers.append((query_index, answer))
            if speed is not None:
                speed.tick()
        if speed is not None:
            slice_seconds = []
            for tables in self.slices:
                slice_seconds.append(timed_build(tables))
                speed.tick()
            self.slice_seconds.append(slice_seconds)
        wall = time.perf_counter() - pass_started
        for query_index, answer in answers:
            self.result.attempted += 1
            rows = result_rows(answer.tables)
            if query_index not in self.reference:
                self.reference[query_index] = rows
                why = check_result(
                    self.inputs, query_index, rows, answer.complete, K
                )
                if why is not None:
                    self.result.fail(f"query {query_index}: {why}")
            elif rows != self.reference[query_index] or not answer.complete:
                self.result.fail(
                    f"query {query_index} ({engine or 'mate'}): answer changed "
                    "between passes"
                )
        if keep is not None:
            keep.extend(answer for _, answer in answers)
        return wall, latencies

    def timed_passes(
        self, seconds: float, speed: MachineSpeed | None = None
    ) -> tuple[list[float], list[list[float]]]:
        walls: list[float] = []
        latencies: list[list[float]] = []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_PASSES or (
            time.perf_counter() + 0.5 * walls[-1] < deadline
        ):
            wall, pass_latencies = self.run_pass(speed=speed)
            walls.append(wall)
            latencies.append(pass_latencies)
        return walls, latencies

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
        self.session = self.index = None


def run(config: WorkloadConfig, options, recorder: SpanRecorder) -> RunResult:
    result = RunResult(workload=config.name, seed=options.seed, traced=options.traced)
    state = DiscoverRun(config, options, result)
    try:
        if options.traced:
            _run_traced(state, recorder)
        else:
            _run_end_to_end(state)
        if options.self_check:
            self_check(result, state.inputs, state.reference, state.order[0], K)
        result.topk_digest = topk_digest(state.reference)
    finally:
        state.close()
    return result


def _run_end_to_end(state: DiscoverRun) -> None:
    config, options, result = state.config, state.options, state.result
    speed = MachineSpeed()
    state.set_up(config.repeats, speed)
    state.run_pass()  # cold pass: fills the cache, fixes the reference answers
    speed.begin()
    with options.profiled():
        walls, latencies = state.timed_passes(options.seconds, speed)
    slowdown = speed.slowdown()
    # Every pass asks the same queries in the same order of a warm session.
    # Percentiles are taken over each query's median across the passes: a
    # few requests per pass take 60-110 ms longer than the same request in
    # every other pass (collector pauses), and with six slow queries one
    # such request moves a p95 of means by 10 %.  Throughput keeps them.
    per_query = [
        seconds / slowdown for seconds in per_operation(latencies, median)
    ]
    pass_seconds = fmean(sum(pass_latencies) for pass_latencies in latencies)
    corpus = state.inputs.corpus
    result.metrics.update(
        {
            "setup_s": median(state.setup_seconds),
            "index_tables_per_s": sum(len(tables) for tables in state.slices)
            / (sum(per_operation(state.slice_seconds, median)) / slowdown),
            "index_bytes_per_cell": ratio(
                state.segment_bytes, non_empty_cells(corpus)
            ),
            # One closed-loop client: throughput is the inverse of the mean
            # request time.
            "discover_qps": len(per_query) / (pass_seconds / slowdown),
            "discover_p50_ms": 1e3 * median(per_query),
            "discover_p95_ms": 1e3 * percentile(per_query, 0.95),
            "peak_rss_mb": peak_rss_mb([os.getpid()]),
        }
    )
    result.notes.update(
        {
            "passes": len(walls),
            "samples": sum(len(p) for p in latencies),
            "queries": len(per_query),
            "machine_slowdown": round(slowdown, 4),
        }
    )


def _run_traced(state: DiscoverRun, recorder: SpanRecorder) -> None:
    """The per-layer run: direct layer calls, a traced pass, comparators."""
    config, options, result = state.config, state.options, state.result
    inputs = state.inputs
    corpus = inputs.corpus
    metrics = result.metrics
    metrics["bench.generate_s"] = inputs.generate_s

    state.set_up(1)
    session, index = state.session, state.index
    rows_total = sum(table.num_rows for table in corpus)
    metrics["index.build_s"] = state.build_seconds[0]
    metrics["index.build_rows_per_s"] = ratio(rows_total, state.build_seconds[0])
    metrics["index.posting_items"] = float(index.num_posting_items())
    metrics["index.distinct_values"] = float(len(index))

    # The cold pass is the only one that reaches the base index (afterwards
    # the posting-list cache holds every probe value), so its fetches are
    # the ones worth a span.
    with recorder.installed(
        [(session.base_index, "fetch_batch", "index.fetch_batch", {})]
    ):
        cold_wall, _ = state.run_pass()
    metrics["cache.cold_pass_s"] = cold_wall
    metrics["index.fetch_batch_s"] = recorder.seconds("index.fetch_batch")
    metrics["index.fetch_calls"] = float(recorder.calls("index.fetch_batch"))

    # Untraced passes first: the denominator of trace.overhead_ratio.
    budget = options.seconds / 3.0
    walls, latencies = state.timed_passes(budget)
    cpu_before = cpu_seconds([os.getpid()])
    cache_before = session.cache_counters.snapshot()
    answers: list = []
    traced_walls: list[float] = []
    with recorder.installed(discover_targets(session)):
        deadline = time.perf_counter() + budget
        while not traced_walls or time.perf_counter() + traced_walls[-1] < deadline:
            wall, _ = state.run_pass(keep=answers)
            traced_walls.append(wall)
    passes = len(traced_walls)
    cpu_used = cpu_seconds([os.getpid()]) - cpu_before
    cache = session.cache_counters.delta_since(cache_before)
    span_metrics(metrics, recorder, answers, passes)
    metrics.update(
        {
            "cache.hits": cache.hits / passes,
            "cache.misses": cache.misses / passes,
            "cache.evictions": cache.evictions / passes,
            "cache.hit_rate": cache.hit_rate,
            "trace.overhead_ratio": ratio(
                median(traced_walls), median(walls)
            ),
            "proc.cpu_s_per_request": ratio(cpu_used, len(answers)),
            "bench.samples": float(sum(len(p) for p in latencies)),
        }
    )
    metrics.update(layers.envelope_metrics(answers[: len(state.requests)]))
    metrics.update(layers.hashing_metrics(corpus))
    metrics.update(layers.storage_metrics(corpus, index, Path(options.work_dir)))
    if options.comparators and config.name == "wt_discover":
        _comparator_passes(state, metrics, latencies, answers[: len(state.requests)])
    result.notes.update({"traced_passes": passes, "untraced_passes": len(walls)})


def span_metrics(metrics, recorder: SpanRecorder, answers, passes: int) -> None:
    """Fold the traced passes' spans and program counters into metrics.

    Times are per pass (each query once); counts are per pass too, so they
    repeat exactly for a fixed seed however many passes the time allowed.
    """
    def per_pass(name: str) -> float:
        return recorder.seconds(name) / passes

    stage_names = (
        "candidate_generation",
        "superkey_prefilter",
        "row_verification",
        "topk_maintenance",
    )
    stage_seconds = {name: per_pass(f"plan.stage.{name}") for name in stage_names}
    for name, seconds in stage_seconds.items():
        metrics[f"plan.stage.{name}_s"] = seconds
    execute = per_pass("plan.executor.execute")
    engine = per_pass("core.engine.discover")
    session_seconds = per_pass("api.session.discover")
    plan_seconds = per_pass("plan.planner.plan")
    requests = len(answers)
    metrics["plan.plan_s"] = plan_seconds
    metrics["plan.executor_self_s"] = execute - sum(stage_seconds.values())
    metrics["plan.row_verification_share"] = ratio(
        stage_seconds["row_verification"], session_seconds
    )
    metrics["core.engine_self_s"] = engine - execute - plan_seconds
    metrics["api.session_self_ms"] = ratio(
        1e3 * (session_seconds - engine) * passes, requests
    )

    # The program's own counters, summed over the traced answers.
    totals: dict[str, float] = {}
    own_stage_seconds = 0.0
    prefilter_in = 0.0
    for answer in answers:
        counters = answer.counters
        for key in (
            "pl_items_fetched", "candidate_tables", "tables_evaluated",
            "tables_pruned_by_rule1", "tables_pruned_by_rule2", "rows_checked",
            "rows_passed_filter", "true_positive_rows", "false_positive_rows",
            "value_comparisons",
        ):
            totals[key] = totals.get(key, 0) + getattr(counters, key)
        for name in stage_names:
            stats = counters.stages.get(name)
            if stats is not None:
                own_stage_seconds += stats.seconds
                if name == "superkey_prefilter":
                    prefilter_in += stats.items_in / passes
    count = {key: value / passes for key, value in totals.items()}
    passed = count["true_positive_rows"] + count["false_positive_rows"]
    metrics.update(
        {
            "index.fetch_items": count["pl_items_fetched"],
            "index.prefilter_rows_in": prefilter_in,
            # Distinct rows that survive (a row can survive for several key
            # tuples, so the stage's own items_out counts pairs, not rows).
            "index.prefilter_rows_out": count["rows_passed_filter"],
            "index.prefilter_pass_ratio": ratio(
                count["rows_passed_filter"], prefilter_in
            ),
            "core.candidate_tables": count["candidate_tables"],
            "core.tables_evaluated": count["tables_evaluated"],
            "core.tables_pruned_rule1": count["tables_pruned_by_rule1"],
            "core.tables_pruned_rule2": count["tables_pruned_by_rule2"],
            "core.rows_checked": count["rows_checked"],
            "core.rows_passed_filter": count["rows_passed_filter"],
            "core.true_positive_rows": count["true_positive_rows"],
            "core.false_positive_rows": count["false_positive_rows"],
            "core.filter_precision": (
                ratio(count["true_positive_rows"], passed) if passed else 1.0
            ),
            "core.value_comparisons": count["value_comparisons"],
            "core.verify_us_per_row": ratio(
                1e6 * stage_seconds["row_verification"], count["rows_passed_filter"]
            ),
            # Outside spans over the program's own StageStats clock: > 1 is
            # what the wrappers (and the call boundary) add.
            "plan.stage_clock_skew": ratio(
                sum(stage_seconds.values()) * passes, own_stage_seconds
            ),
        }
    )


def _comparator_passes(state: DiscoverRun, metrics, latencies, mate_answers) -> None:
    """One pass per alternative engine (rows for the consolidation item).

    They run after every other number is taken and feed only ``engine.*`` /
    ``xash.*`` metrics; answers are still checked against the reference.
    To keep the traced run inside the time cap the passes cover every
    second query of the pass order; the mate side of each ratio is taken
    over the same queries (``latencies`` and ``mate_answers`` are in pass
    order).
    """
    subset = state.order[::2]
    mate_pass_s = median([sum(pass_latencies[::2]) for pass_latencies in latencies])
    mate_rows = sum(a.counters.rows_passed_filter for a in mate_answers[::2])
    metrics["engine.mate.pass_s"] = mate_pass_s

    started = time.perf_counter()
    state.session.discover(
        DiscoveryRequest(query=state.inputs.queries[subset[0]], k=K, engine="sql")
    )
    first_sql = time.perf_counter() - started
    sql_wall, sql_latencies = state.run_pass(engine="sql", order=subset)
    metrics["engine.sql.pass_s"] = sql_wall
    # The accelerator is built when the engine is: the first request's time
    # beyond an ordinary request of the same query is the build.
    metrics["engine.sql.accelerator_build_s"] = max(0.0, first_sql - sql_latencies[0])

    scr_answers: list = []
    metrics["engine.scr.pass_s"] = state.run_pass(
        engine="scr", keep=scr_answers, order=subset
    )[0]
    metrics["xash.speedup_vs_scr"] = ratio(metrics["engine.scr.pass_s"], mate_pass_s)
    scr_rows = sum(answer.counters.rows_passed_filter for answer in scr_answers)
    metrics["xash.fp_rows_pruned_ratio"] = 1.0 - ratio(mate_rows, scr_rows)

    # engine="sharded" on threads needs a session configured with shards.
    state.session.close()
    state.session = DiscoverySession(
        state.inputs.corpus, state.index, service_config=ServiceConfig(num_shards=2)
    )
    state.session.discover(
        DiscoveryRequest(query=state.inputs.queries[subset[0]], k=K, engine="sharded")
    )
    metrics["engine.sharded_thread.pass_s"] = state.run_pass(
        engine="sharded", order=subset
    )[0]
