"""The ``http_serve`` workload: a real server subprocess under HTTP load.

``python -m repro.cli serve corpus.json --port 0 --execution process
--shards 2`` is started as a subprocess (own process group, stdout to a
file, every wait bounded); the client side posts ``/v1/discover`` with
``engine="sharded"`` from ``CONNECTIONS`` threads.  The server answers
``Connection: close``, so every request opens a fresh TCP connection — there
is no keep-alive to reuse.

Phases: boot + first request (repeated, ``setup_s`` is the median), warm-up
(every query once) and a closed loop: each thread sends its next request
when the previous one completed.  The loop runs in bursts of identical work
with slices of the speed kernel between them
(:class:`~bench_e2e.measure.MachineSpeed`); the end-to-end metrics come
from that closed loop alone.  The traced run adds an open loop in which
every request is timed from the moment it was *due*, so a stall is charged
to the requests queued behind it.  Its arrival rate is
``OPEN_UTILISATION`` of the closed-loop throughput measured in the same
run, not a frozen number: the reference box's speed drifts by +-25 %
between sessions, and at a frozen rate a 25 % slower box turns ~50 %
utilisation into ~70 %, where queueing multiplies latency from due by 2-3x
for unchanged code.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.storage import save_corpus_json

from . import layers
from .config import K, WorkloadConfig
from .discover import build_slices, timed_build
from .inputs import (
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
    directory_bytes,
    median,
    peak_rss_mb,
    percentile,
    process_tree,
    ratio,
)
from .spans import SpanRecorder

SERVE_BANNER = "serving on http://"
BOOT_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0
NUM_SHARDS = 2
#: Closed-loop client threads (= requests in flight); ``nproc`` of the box.
CONNECTIONS = 2
#: The closed loop runs in bursts of this many rounds over the query set
#: (identical work per burst); median and p95 latency are taken per burst
#: and the bursts combined by their median.
BURST_ROUNDS = 3
#: Open-loop arrival rate as a share of the measured closed-loop throughput.
OPEN_UTILISATION = 0.5
#: A correct open-loop answer later than this multiple of the measured
#: closed-loop median latency (from due) misses the goodput count.
LATENCY_LIMIT_FACTOR = 4.0


class Server:
    """One ``repro serve`` subprocess and its address."""

    def __init__(self, corpus_path: Path, work_dir: Path, tag: str, execution: str):
        self.log_path = work_dir / f"server-{tag}.log"
        self.segments_dir = work_dir / f"segments-{tag}"
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), TMPDIR=str(work_dir))
        command = [
            sys.executable, "-m", "repro.cli", "serve", str(corpus_path),
            "--port", "0", "--execution", execution, "--shards", str(NUM_SHARDS),
        ]
        if execution == "process":
            command += ["--segments-dir", str(self.segments_dir)]
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_banner()
        except BaseException:
            self.kill()
            raise
        self.boot_s = time.perf_counter() - started

    def _await_banner(self) -> tuple[str, int]:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited during start-up (rc={self.process.returncode}): "
                    + self.log_tail()
                )
            for line in self.log_path.read_text(encoding="utf-8").splitlines():
                if SERVE_BANNER in line:
                    host, _, port = line.split(SERVE_BANNER, 1)[1].strip().rpartition(":")
                    return host, int(port)
            time.sleep(0.02)
        raise RuntimeError("server never printed its listening banner")

    def log_tail(self) -> str:
        return self.log_path.read_text(encoding="utf-8")[-600:]

    def pids(self) -> list[int]:
        return process_tree(self.process.pid)

    def stop(self) -> int | None:
        """SIGTERM, bounded wait, then the whole process group is killed."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=SHUTDOWN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
        self.kill()
        return self.process.returncode

    def kill(self) -> None:
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        self._log.close()

    # ------------------------------------------------------------------
    def get(self, path: str) -> bytes:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            connection.request("GET", path)
            return connection.getresponse().read()
        finally:
            connection.close()

    def post_discover(self, body: bytes) -> tuple[int, bytes, float, float]:
        """One request; returns (status, payload, connected_at, sent_at)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=REQUEST_TIMEOUT_S
        )
        try:
            connection.connect()
            connected = time.perf_counter()
            connection.request(
                "POST", "/v1/discover", body,
                {"Content-Type": "application/json"},
            )
            sent = time.perf_counter()
            response = connection.getresponse()
            return response.status, response.read(), connected, sent
        finally:
            connection.close()

    def metric_sums(self) -> dict[str, float]:
        """Every un-labelled sample of ``GET /metrics`` by name."""
        samples: dict[str, float] = {}
        for line in self.get("/metrics").decode("utf-8").splitlines():
            if line and not line.startswith("#") and "{" not in line:
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        return samples


def request_body(query, engine: str = "sharded") -> bytes:
    return json.dumps(
        {
            "query": {
                "name": query.table.name,
                "columns": list(query.table.columns),
                "rows": [list(row) for row in query.table.rows],
            },
            "key_columns": list(query.key_columns),
            "k": K,
            "engine": engine,
        }
    ).encode("utf-8")


class Sample:
    """One request's client-side record."""

    __slots__ = ("query_index", "due", "started", "connected", "sent", "done",
                 "status", "payload", "error", "good")

    def __init__(self, query_index: int, due: float):
        self.query_index = query_index
        self.due = due
        self.started = self.connected = self.sent = self.done = 0.0
        self.status = 0
        self.payload = b""
        self.error = ""
        #: Set by ``HttpRun.judge``: answered, complete and correct.
        self.good = False


class LoadGenerator:
    """Closed- and open-loop request generation over one server."""

    def __init__(self, server: Server, bodies: list[bytes], order: list[int]):
        self.server = server
        self.bodies = bodies
        self.order = order
        self._cursor = itertools.count()

    def _next_query(self) -> int:
        return self.order[next(self._cursor) % len(self.order)]

    def send(self, sample: Sample) -> None:
        """Send one request, filling in the sample's timestamps and answer."""
        sample.started = time.perf_counter()
        try:
            sample.status, sample.payload, sample.connected, sample.sent = (
                self.server.post_discover(self.bodies[sample.query_index])
            )
        except (OSError, http.client.HTTPException) as error:
            sample.error = f"{type(error).__name__}: {error}"
        sample.done = time.perf_counter()

    def _run_threads(self, target) -> None:
        threads = [
            threading.Thread(target=target, name=f"client-{index}")
            for index in range(CONNECTIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def closed_loop(self, requests: int) -> list[Sample]:
        """``requests`` requests in all; each thread sends its next one as
        soon as its last completed."""
        samples: list[Sample] = []
        remaining = itertools.count()

        def client() -> None:
            while next(remaining) < requests:
                sample = Sample(self._next_query(), due=0.0)
                self.send(sample)
                samples.append(sample)

        self._run_threads(client)
        return samples

    def open_loop(self, seconds: float, rate_rps: float) -> tuple[list[Sample], int]:
        """Requests fall due every ``1/rate_rps`` s whatever the server does.

        A thread takes the next slot, sleeps until it is due and sends it;
        when every thread is still busy at a slot's due time the slot goes
        out late, which its latency (timed from due) includes.  Returns the
        samples and the backlog: slots already due but unsent when the
        window closed.
        """
        total = max(1, int(seconds * rate_rps))
        epoch = time.perf_counter() + 0.05
        window_end = epoch + seconds
        slots = itertools.count()
        samples: list[Sample] = []
        backlog = [0]
        lock = threading.Lock()

        def client() -> None:
            while True:
                slot = next(slots)
                if slot >= total:
                    return
                due = epoch + slot / rate_rps
                now = time.perf_counter()
                if now < due:
                    time.sleep(due - now)
                elif now > window_end:
                    with lock:
                        backlog[0] += 1
                sample = Sample(self._next_query(), due=due)
                self.send(sample)
                samples.append(sample)

        self._run_threads(client)
        return samples, backlog[0]


class HttpRun:
    def __init__(self, config: WorkloadConfig, options, result: RunResult):
        self.config = config
        self.options = options
        self.result = result
        self.work_dir = Path(options.work_dir)
        self.inputs = generate_inputs(config.inputs, options.seed, config.name)
        self.corpus_path = save_corpus_json(
            self.inputs.corpus, self.work_dir / "corpus.json"
        )
        self.bodies = [request_body(query) for query in self.inputs.queries]
        self.order = list(range(len(self.bodies)))
        random.Random(f"{options.seed}:{config.name}:order").shuffle(self.order)
        self.reference: dict[int, list] = {}
        self.server: Server | None = None
        self.boot_seconds: list[float] = []
        self.first_request_seconds: list[float] = []
        self.server_rss_mb = 0.0

    def set_up(self, repeats: int, speed: MachineSpeed | None = None) -> None:
        """Boot a server and send it its first request, ``repeats`` times
        (the last server stays).  With ``speed`` each repeat's seconds are
        recorded at reference speed (kernel slices just before and after)."""
        for repeat in range(repeats):
            if self.server is not None:
                self.stop_server()
            if speed is not None:
                speed.begin()
                speed.sample(speed.AROUND)
            server = Server(
                self.corpus_path, self.work_dir, f"process-{repeat}", "process"
            )
            self.server = server
            sample = Sample(self.order[0], due=0.0)
            LoadGenerator(server, self.bodies, self.order).send(sample)
            slowdown = 1.0
            if speed is not None:
                speed.sample(speed.AROUND)
                slowdown = speed.slowdown()
            self.boot_seconds.append(server.boot_s / slowdown)
            self.first_request_seconds.append(
                (sample.done - sample.started) / slowdown
            )
            self.judge([sample])

    def stop_server(self) -> None:
        server, self.server = self.server, None
        if server is None:
            return
        self.server_rss_mb = max(self.server_rss_mb, peak_rss_mb(server.pids()))
        returncode = server.stop()
        if returncode != 0:
            self.result.attempted += 1
            self.result.fail(f"server exited {returncode} on SIGTERM: {server.log_tail()}")

    def judge(self, samples: list[Sample]) -> None:
        """Count every sample as an attempted operation and mark the good ones."""
        for sample in samples:
            self.result.attempted += 1
            if sample.error or sample.status != 200:
                self.result.fail(
                    f"query {sample.query_index}: "
                    + (sample.error or f"HTTP {sample.status}")
                )
                continue
            envelope = json.loads(sample.payload)
            rows = result_rows(envelope["tables"])
            reference = self.reference.get(sample.query_index)
            if reference is None:
                self.reference[sample.query_index] = rows
                why = check_result(
                    self.inputs, sample.query_index, rows, envelope["complete"], K
                )
                if why is not None:
                    self.result.fail(f"query {sample.query_index}: {why}")
                    continue
            elif rows != reference or not envelope["complete"]:
                self.result.fail(f"query {sample.query_index}: answer changed")
                continue
            sample.good = True


def closed_bursts(
    generator: LoadGenerator,
    seconds: float,
    speed: MachineSpeed | None = None,
    slices: list | None = None,
) -> tuple[list[tuple[float, list[Sample]]], list[list[float]]]:
    """The closed loop for ``seconds``: (start, samples) per burst, and per
    corpus slice of ``slices`` the seconds of each of its builds.

    A burst is ``BURST_ROUNDS`` rounds over the query set, so every burst is
    the same work; between two bursts the client threads are joined and,
    with ``speed``, one corpus slice is bulk-built in this process
    (``index_tables_per_s``) and kernel slices run while the server idles.
    Every slice is built at least once.
    """
    requests = BURST_ROUNDS * len(generator.order)
    bursts: list[tuple[float, list[Sample]]] = []
    slice_seconds: list[list[float]] = [[] for _ in slices or ()]
    deadline = time.perf_counter() + seconds
    while len(bursts) < max(1, len(slice_seconds)) or time.perf_counter() < deadline:
        started = time.perf_counter()
        bursts.append((started, generator.closed_loop(requests=requests)))
        if speed is not None:
            speed.tick()
        if slices:
            index = len(bursts) % len(slices)
            slice_seconds[index].append(timed_build(slices[index]))
            speed.tick()
    return bursts, slice_seconds


def pooled(bursts: list[tuple[float, list[Sample]]]) -> list[Sample]:
    return [sample for _, samples in bursts for sample in samples]


def closed_loop_stats(
    bursts: list[tuple[float, list[Sample]]], slowdown: float = 1.0
) -> dict[str, float]:
    """Throughput and latency of a judged closed loop, at reference speed.

    Throughput is the correct answers of all bursts over the bursts' wall
    time.  Each burst gives its median and its p95 client latency; the
    bursts are combined by their median, so the tail is the tail *within*
    a typical burst and a stall that hits a few bursts does not reach it.
    """
    good = wall = 0.0
    p50, p95 = [], []
    for started, samples in bursts:
        wall += max(sample.done for sample in samples) - started
        good += sum(sample.good for sample in samples)
        latencies = [sample.done - sample.started for sample in samples]
        p50.append(median(latencies))
        p95.append(percentile(latencies, 0.95))
    return {
        "qps": good / wall * slowdown,
        "p50_ms": 1e3 * median(p50) / slowdown,
        "p95_ms": 1e3 * median(p95) / slowdown,
    }


def run(config: WorkloadConfig, options, recorder: SpanRecorder) -> RunResult:
    result = RunResult(workload=config.name, seed=options.seed, traced=options.traced)
    state = HttpRun(config, options, result)
    try:
        if options.traced:
            _run_traced(state, recorder)
        else:
            _run_end_to_end(state)
        if options.self_check:
            self_check(result, state.inputs, state.reference, state.order[0], K)
        result.topk_digest = topk_digest(state.reference)
    finally:
        state.stop_server()
    return result


def _warm_up(state: HttpRun, generator: LoadGenerator) -> None:
    # Every distinct query once, so the reference answers are fixed (and
    # oracle-checked) before anything is timed.
    state.judge(generator.closed_loop(requests=len(state.order)))


def _run_end_to_end(state: HttpRun) -> None:
    config, options, result = state.config, state.options, state.result
    speed = MachineSpeed()
    state.set_up(config.repeats, speed)
    server = state.server
    generator = LoadGenerator(server, state.bodies, state.order)
    _warm_up(state, generator)

    slices = build_slices(state.inputs.corpus)
    speed.begin()
    with options.profiled():
        bursts, slice_seconds = closed_bursts(
            generator, options.seconds, speed, slices
        )
    slowdown = speed.slowdown()
    state.judge(pooled(bursts))
    stats = closed_loop_stats(bursts, slowdown)

    segment_bytes = directory_bytes(server.segments_dir, ".seg")
    corpus = state.inputs.corpus
    state.stop_server()
    result.metrics.update(
        {
            "setup_s": median(
                [
                    boot + first
                    for boot, first in zip(
                        state.boot_seconds, state.first_request_seconds
                    )
                ]
            ),
            # build_index over slices of the corpus, in this process between
            # the bursts (the server's own build at boot is part of setup_s).
            "index_tables_per_s": sum(len(tables) for tables in slices)
            / (sum(median(seconds) for seconds in slice_seconds) / slowdown),
            "index_bytes_per_cell": ratio(segment_bytes, non_empty_cells(corpus)),
            "discover_qps": stats["qps"],
            "discover_p50_ms": stats["p50_ms"],
            "discover_p95_ms": stats["p95_ms"],
            "peak_rss_mb": peak_rss_mb([os.getpid()]) + state.server_rss_mb,
        }
    )
    result.notes.update(
        {
            "closed_samples": sum(len(samples) for _, samples in bursts),
            "bursts": len(bursts),
            "machine_slowdown": round(slowdown, 4),
        }
    )


def _run_traced(state: HttpRun, recorder: SpanRecorder) -> None:
    """Per-layer numbers from client spans, the envelope and /metrics deltas."""
    options, result = state.options, state.result
    metrics = result.metrics
    corpus = state.inputs.corpus
    metrics["bench.generate_s"] = state.inputs.generate_s
    state.set_up(1)
    server = state.server
    metrics["serve.boot_s"] = state.boot_seconds[0]
    metrics["serve.first_request_s"] = state.first_request_seconds[0]
    generator = LoadGenerator(server, state.bodies, state.order)
    _warm_up(state, generator)

    budget = options.seconds / 3.0
    # The same closed loop without the scrapes around it: the base of
    # trace.overhead_ratio (client spans are cut from the samples afterwards,
    # so the request path itself carries no tracing at all).
    plain = pooled(closed_bursts(generator, budget / 2)[0])
    state.judge(plain)
    plain_ms = [1e3 * (sample.done - sample.started) for sample in plain]
    before = server.metric_sums()
    cpu_before = cpu_seconds(server.pids() + [os.getpid()])
    bursts, _ = closed_bursts(generator, budget)
    cpu_used = cpu_seconds(server.pids() + [os.getpid()]) - cpu_before
    after = server.metric_sums()
    closed = pooled(bursts)
    state.judge(closed)
    closed_stats = closed_loop_stats(bursts)
    requests = len(closed)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    for request_id, sample in enumerate(closed, start=1):
        recorder.add_span("client.connect", sample.started, sample.connected, request_id)
        recorder.add_span("client.send", sample.connected, sample.sent, request_id)
        recorder.add_span("client.wait_read", sample.sent, sample.done, request_id)
    client_ms = [1e3 * (sample.done - sample.started) for sample in closed]
    http_ms = ratio(1e3 * delta("repro_http_request_latency_seconds_sum"), requests)
    session_ms = ratio(1e3 * delta("repro_request_latency_seconds_sum"), requests)
    scatter = delta("repro_pool_scatter_seconds_total")
    gather = delta("repro_pool_gather_seconds_total")
    shard = delta("repro_pool_shard_seconds_total")
    straggler = delta("repro_pool_straggler_seconds_total")
    stage_seconds = 0.0
    for sample in closed:
        if sample.status == 200:
            stages = json.loads(sample.payload).get("stages", {})
            stage_seconds += sum(
                stats["seconds"] for name, stats in stages.items()
                if name not in ("scatter", "gather")
            )
    metrics.update(
        {
            "serve.client_overhead_ms": ratio(sum(client_ms), requests) - http_ms,
            "serve.http_frontend_ms": http_ms - session_ms,
            "serve.session_ms": session_ms,
            "serve.scatter_ms": ratio(1e3 * scatter, requests),
            "serve.gather_ms": ratio(1e3 * gather, requests),
            "serve.shard_ms": ratio(1e3 * shard, requests * NUM_SHARDS),
            "serve.straggler_ms": ratio(1e3 * straggler, requests),
            "serve.ipc_overhead_ms": ratio(
                1e3 * (scatter + gather - straggler), requests
            ),
            "serve.shard_imbalance": ratio(straggler * NUM_SHARDS, shard),
            "serve.admission_rejected": delta("repro_admission_rejected_total"),
            # Engine stage seconds are summed over both shards, which run in
            # parallel; per request the blocking share is half of it.
            "serve.engine_share": ratio(
                1e3 * stage_seconds / NUM_SHARDS, sum(client_ms)
            ),
            "proc.cpu_s_per_request": ratio(cpu_used, requests),
            "bench.samples": float(requests),
        }
    )

    # Open loop, sized from what this very server just sustained.
    rate_rps = OPEN_UTILISATION * closed_stats["qps"]
    limit_ms = LATENCY_LIMIT_FACTOR * closed_stats["p50_ms"]
    opened, backlog = generator.open_loop(budget, rate_rps)
    state.judge(opened)
    open_ms = [1e3 * (sample.done - sample.due) for sample in opened]
    in_time = sum(
        sample.good and latency <= limit_ms
        for sample, latency in zip(opened, open_ms)
    )
    late_ms = [1e3 * max(0.0, sample.started - sample.due) for sample in opened]
    metrics.update(
        {
            "serve.open_rate_rps": rate_rps,
            "serve.open_p50_ms": median(open_ms),
            "serve.open_p95_ms": percentile(open_ms, 0.95),
            "serve.open_goodput_share": ratio(in_time, len(opened)),
            "serve.open_late_p95_ms": percentile(late_ms, 0.95),
            "serve.open_backlog_end": float(backlog),
            "storage.corpus_json_bytes": float(state.corpus_path.stat().st_size),
            "storage.segment_bytes": float(
                directory_bytes(server.segments_dir, ".seg")
            ),
        }
    )
    state.stop_server()

    if options.comparators:
        thread_server = Server(state.corpus_path, state.work_dir, "thread", "thread")
        state.server = thread_server
        thread_generator = LoadGenerator(thread_server, state.bodies, state.order)
        state.judge(thread_generator.closed_loop(requests=len(state.order)))
        bursts, _ = closed_bursts(thread_generator, budget / 2)
        state.judge(pooled(bursts))
        metrics["serve.thread_exec_rps"] = closed_loop_stats(bursts)["qps"]
        state.stop_server()
    metrics["trace.overhead_ratio"] = ratio(median(client_ms), median(plain_ms))
    metrics.update(layers.hashing_metrics(corpus))
    result.notes.update(
        {
            "closed_samples": requests,
            "open_samples": len(opened),
            "latency_limit_ms": round(limit_ms, 3),
        }
    )
