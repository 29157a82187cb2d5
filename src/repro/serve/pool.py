"""Process-pool shard execution: one worker process per corpus shard.

The in-process :class:`~repro.core.parallel.ShardedMateDiscovery` fans a
query out over per-shard engines on *threads*, so the CPU-bound parts of
Algorithm 1 serialise on the GIL.  :class:`ProcessShardPool` keeps the exact
same sharding (:func:`~repro.core.parallel.shard_corpus`) and the exact same
merge (:func:`~repro.core.parallel.merge_discovery_results`) — so its top-k
is byte-identical to ``engine="sharded"`` — but runs every shard in its own
worker *process*:

* the pool builds one columnar index per shard, persists it as a binary
  ``.seg`` file (:func:`~repro.storage.paged.write_segment`), and each worker
  reopens its file via :func:`~repro.storage.paged.reopen_segment` as an
  :class:`~repro.index.InvertedIndex` over the mapping — the mmap'd pages are
  shared between processes, so per-worker opens cost only the directory
  parse;
* scatter/gather runs over pipe connections with the typed messages of
  :mod:`repro.serve.protocol`; a per-worker receiver thread resolves replies
  into task slots, so concurrent ``discover`` calls (the serving front end
  runs many) interleave safely on the same pool;
* a per-request :class:`~repro.api.request.RequestBudget` is *split* across
  shards at scatter time (:func:`split_budget`: floor share plus one of the
  remainder to the lowest shard indexes — deterministic) and *reconciled* on
  gather: consumed fetches are charged back to the caller's ledger and the
  latched ``exhausted`` / ``expired`` flags are ORed across shards;
* a worker that errors or dies fails its shard's probe, and the request
  raises a :class:`~repro.exceptions.DiscoveryError` naming the shard.

The pool exposes ``discover(query, k, budget=)`` — the engine surface the
:class:`~repro.api.session.DiscoverySession` dispatches to — and is what
``DiscoverySession(..., execution="process")`` builds behind
``engine="sharded"``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from ..config import MateConfig
from ..core.parallel import (
    ShardStatistics,
    merge_discovery_results,
    shard_corpus,
)
from ..core.results import DiscoveryResult
from ..datamodel import QueryTable, TableCorpus
from ..exceptions import ConfigurationError, DiscoveryError
from ..index import IndexBuilder
from ..metrics.serving import ServeMetrics
from ..metrics.timing import StageStats
from ..telemetry import trace as _trace
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolStats,
    ShardError,
    ShardQuery,
    ShardResult,
    Shutdown,
    WorkerReady,
)

#: Seconds to wait for each worker's startup handshake.
WORKER_START_TIMEOUT = 60.0


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the process-pool execution mode.

    Parameters
    ----------
    num_shards:
        Worker processes (= corpus shards) the pool runs.
    mp_context:
        :mod:`multiprocessing` start method (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``); ``None`` uses the platform default.  The worker
        entry point is a module-level function, so every method works.
    segments_dir:
        Directory the per-shard ``.seg`` files are written to.  ``None``
        uses a private temporary directory removed on :meth:`close`; a given
        directory is left in place (segments can be inspected or reused).
    """

    num_shards: int = 4
    mp_context: str | None = None
    segments_dir: str | Path | None = None

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ConfigurationError(
                f"num_shards must be positive, got {self.num_shards}"
            )


def split_budget(total: int | None, num_shards: int) -> list[int | None]:
    """Split a fetch budget into deterministic per-shard shares.

    Every shard gets the floor share; the remainder goes to the lowest shard
    indexes, one fetch each, so the split is reproducible and the shares sum
    exactly to ``total``.  ``None`` (unlimited) stays ``None`` everywhere.
    """
    if num_shards <= 0:
        raise DiscoveryError(f"num_shards must be positive, got {num_shards}")
    if total is None:
        return [None] * num_shards
    if total < 0:
        raise DiscoveryError(f"budget must be non-negative, got {total}")
    base, remainder = divmod(total, num_shards)
    return [
        base + (1 if shard_index < remainder else 0)
        for shard_index in range(num_shards)
    ]


def _worker_main(
    conn,
    shard_index: int,
    segment_path: str,
    corpus: TableCorpus,
    config: MateConfig,
    hash_function_name: str,
    column_selector,
    row_filter_mode: str,
    use_table_filters: bool,
) -> None:
    """Worker entry point: own one shard, answer scattered probes.

    Module-level (not a closure) so it pickles under the ``spawn`` start
    method.  The worker maps its shard's segment read-only, builds the
    standard per-shard :class:`~repro.core.discovery.MateDiscovery` engine
    over it, and loops on the pipe until a :class:`Shutdown` (or EOF — the
    parent died) arrives.  SIGINT is ignored: on Ctrl-C the parent drives a
    graceful drain and shuts workers down explicitly.
    """
    from contextlib import nullcontext

    from ..api.request import RequestBudget
    from ..core.discovery import MateDiscovery
    from ..exceptions import MateError
    from ..storage.paged import reopen_segment
    from ..telemetry.trace import CollectingExporter, Tracer

    # Lazy worker-side tracer: built on the first traced query (protocol v3
    # puts a TraceContext on the ShardQuery), collects finished spans in
    # memory and ships them back on each ShardResult.  Untraced workloads
    # never pay for it.
    worker_exporter: CollectingExporter | None = None
    worker_tracer: Tracer | None = None

    try:  # pragma: no cover - signal wiring is exercised via the CLI smoke
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        # A fork()ed worker inherits whatever SIGTERM handler the parent had
        # installed (the serve CLI's asyncio loop registers one); restore the
        # default so terminate() — including multiprocessing's atexit cleanup
        # of daemon children — actually kills the worker instead of feeding a
        # meaningless callback.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):
        pass
    index = reopen_segment(
        segment_path,
        hash_function_name=hash_function_name,
        hash_size=config.hash_size,
    )
    # No sketch store is shipped: the engine signs its shard corpus on the
    # first sketch-mode query, so exact-only workloads never pay for it.
    engine = MateDiscovery(
        corpus,
        index,
        config=config,
        hash_function_name=hash_function_name,
        column_selector=column_selector,
        row_filter_mode=row_filter_mode,
        use_table_filters=use_table_filters,
    )
    conn.send(
        WorkerReady(
            shard_index=shard_index,
            pid=os.getpid(),
            num_tables=len(corpus),
            num_postings=index.num_posting_items(),
        )
    )
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            if isinstance(message, Shutdown):
                break
            if not isinstance(message, ShardQuery):
                continue
            try:
                budget = None
                if (
                    message.max_pl_fetches is not None
                    or message.deadline_seconds is not None
                ):
                    if (
                        message.deadline_seconds is not None
                        and message.deadline_seconds <= 0
                    ):
                        # The global deadline already passed at scatter time:
                        # answer with an immediately expired ledger instead
                        # of rejecting the (valid) request.
                        budget = RequestBudget(
                            max_pl_fetches=message.max_pl_fetches
                        )
                        budget.cancel()
                    else:
                        budget = RequestBudget(
                            deadline_seconds=message.deadline_seconds,
                            max_pl_fetches=message.max_pl_fetches,
                        )
                run_kwargs = {}
                if message.planner is not None:
                    run_kwargs["planner"] = message.planner
                if message.sketch is not None:
                    run_kwargs["sketch"] = message.sketch
                if message.trace is not None:
                    if worker_tracer is None:
                        worker_exporter = CollectingExporter()
                        worker_tracer = Tracer(worker_exporter)
                    span_cm = worker_tracer.span(
                        "shard.discover",
                        parent=message.trace,
                        attributes={"shard_index": shard_index},
                    )
                else:
                    span_cm = nullcontext()
                with span_cm as span:
                    started = time.perf_counter()
                    result = engine.discover(
                        message.query, k=message.k, budget=budget, **run_kwargs
                    )
                    result.counters.runtime_seconds = (
                        time.perf_counter() - started
                    )
                    consumed = 0
                    exhausted = expired = False
                    if budget is not None:
                        if message.max_pl_fetches is not None:
                            consumed = message.max_pl_fetches - (
                                budget.remaining_pl_fetches or 0
                            )
                        exhausted = budget.exhausted
                        expired = budget.expired
                    if span is not None:
                        span.set_attribute("tables", len(result.tables))
                        span.set_attribute("consumed_pl_fetches", consumed)
                spans: tuple = ()
                if message.trace is not None and worker_exporter is not None:
                    spans = tuple(worker_exporter.drain())
                reply = ShardResult(
                    task_id=message.task_id,
                    shard_index=shard_index,
                    result=result,
                    consumed_pl_fetches=consumed,
                    exhausted=exhausted,
                    expired=expired,
                    seconds=result.counters.runtime_seconds,
                    spans=spans,
                )
            except MateError as error:
                reply = ShardError(
                    task_id=message.task_id,
                    shard_index=shard_index,
                    kind=type(error).__name__,
                    message=str(error),
                )
            except Exception as error:  # noqa: BLE001 - relayed to the parent
                reply = ShardError(
                    task_id=message.task_id,
                    shard_index=shard_index,
                    kind=type(error).__name__,
                    message=str(error),
                )
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        index.close()
        conn.close()


class _Worker:
    """Parent-side handle of one shard's worker process."""

    def __init__(self, shard_index: int, process, conn):
        self.shard_index = shard_index
        self.process = process
        self.conn = conn
        self.alive = True
        self.stats = ProtocolStats()
        self._send_lock = threading.Lock()
        self.ready: WorkerReady | None = None

    def send(self, message) -> bool:
        """Send one message; returns ``False`` when the worker is gone."""
        if not self.alive:
            return False
        try:
            with self._send_lock:
                self.conn.send(message)
        except (BrokenPipeError, OSError):
            return False
        self.stats.sent += 1
        return True


class _TaskSlot:
    """One scattered shard probe awaiting its reply."""

    __slots__ = ("shard_index", "event", "reply", "errors", "message")

    def __init__(self, shard_index: int):
        self.shard_index = shard_index
        self.event = threading.Event()
        self.reply: ShardResult | None = None
        self.errors: list[ShardError] = []
        self.message: ShardQuery | None = None


class ProcessShardPool:
    """Corpus-sharded discovery over a pool of shard-owning processes.

    The engine surface matches :class:`~repro.core.parallel.ShardedMateDiscovery`
    (``discover(query, k)`` plus ``last_shard_statistics``) and additionally
    accepts the ``budget=`` keyword — the pool is registered capable of
    per-request limits even though its *spec* (shared with the thread-mode
    engine) is not, via the instance-level ``supports_budget`` flag the
    session consults.
    """

    system_name = "mate-sharded"
    #: Instance-level capability flags (see DiscoverySession._run_kwargs):
    #: budgets are split across shards and reconciled on gather; planner and
    #: sketch options travel verbatim inside each ShardQuery and run inside
    #: every shard worker (each pruning against the sketch store it signs
    #: from its shard, so ``SketchOptions.max_candidates`` caps per shard).
    supports_budget = True
    supports_planner = True
    supports_sketch = True

    def __init__(
        self,
        corpus: TableCorpus,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        column_selector="cardinality",
        row_filter_mode: str = "superkey",
        use_table_filters: bool = True,
        serve_config: ServeConfig | None = None,
        telemetry=None,
    ):
        self.config = config or MateConfig()
        self.serve_config = serve_config or ServeConfig()
        self.hash_function_name = hash_function_name
        self.column_selector = column_selector
        self.row_filter_mode = row_filter_mode
        self.use_table_filters = use_table_filters
        self.shards = shard_corpus(corpus, self.serve_config.num_shards)
        self.last_shard_statistics: list[ShardStatistics] = []
        self.metrics = ServeMetrics()
        self.telemetry = telemetry
        if telemetry is not None:
            self._register_metrics(telemetry.metrics)
        self._tasks: dict[int, _TaskSlot] = {}
        self._tasks_lock = threading.Lock()
        self._task_ids = itertools.count(1)
        self._closed = False
        self._receivers: list[threading.Thread] = []

        if self.serve_config.segments_dir is None:
            self._segments_dir = Path(tempfile.mkdtemp(prefix="mate-serve-"))
            self._owns_segments_dir = True
        else:
            self._segments_dir = Path(self.serve_config.segments_dir)
            self._segments_dir.mkdir(parents=True, exist_ok=True)
            self._owns_segments_dir = False

        try:
            self._segment_paths = self._write_shard_segments()
            self._context = multiprocessing.get_context(
                self.serve_config.mp_context
            )
            self._workers = [
                self._start_worker(shard_index)
                for shard_index in range(self.num_shards)
            ]
            for worker in self._workers:
                self._await_ready(worker)
            for worker in self._workers:
                self._start_receiver(worker)
        except BaseException:
            self.close()
            raise

    def _register_metrics(self, registry) -> None:
        """Expose the pool's :class:`ServeMetrics` through the registry.

        Scrape-time callbacks keep :class:`ServeMetrics` the single source
        of truth (the pool keeps mutating its plain fields on the hot path)
        while ``GET /metrics`` and ``/v1/stats`` read everything from one
        place.
        """
        metrics = self.metrics
        for name, fn, help_text in (
            ("repro_pool_requests_total", lambda: metrics.requests,
             "Scatter/gather requests served by the process pool"),
            ("repro_pool_replies_discarded_total",
             lambda: metrics.replies_discarded,
             "Late shard replies dropped after their request ended"),
            ("repro_pool_scatter_seconds_total", lambda: metrics.scatter.seconds,
             "Cumulative scatter-side seconds"),
            ("repro_pool_gather_seconds_total", lambda: metrics.gather.seconds,
             "Cumulative gather-side seconds"),
            ("repro_pool_shard_seconds_total", lambda: metrics.shard_seconds,
             "Cumulative worker-side engine seconds across shards"),
            ("repro_pool_straggler_seconds_total",
             lambda: metrics.straggler_seconds,
             "Cumulative slowest-shard seconds per request"),
        ):
            registry.counter_callback(name, fn, help_text)
        registry.gauge_callback(
            "repro_pool_num_shards",
            lambda: self.num_shards,
            "Worker processes (= corpus shards) of the pool",
        )

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of corpus shards (= worker processes)."""
        return len(self.shards)

    def _write_shard_segments(self) -> list[Path]:
        """Build one columnar index per shard and persist it as a ``.seg``."""
        from ..storage.paged import write_segment

        builder = IndexBuilder(
            config=self.config, hash_function_name=self.hash_function_name
        )
        paths = []
        for shard_index, shard in enumerate(self.shards):
            path = self._segments_dir / f"shard_{shard_index:02d}.seg"
            write_segment(builder.build(shard), path, fsync=False)
            paths.append(path)
        return paths

    def _start_worker(self, shard_index: int) -> _Worker:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                shard_index,
                str(self._segment_paths[shard_index]),
                self.shards[shard_index],
                self.config,
                self.hash_function_name,
                self.column_selector,
                self.row_filter_mode,
                self.use_table_filters,
            ),
            name=f"mate-shard-{shard_index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(shard_index, process, parent_conn)

    def _await_ready(self, worker: _Worker) -> None:
        if not worker.conn.poll(WORKER_START_TIMEOUT):
            raise DiscoveryError(
                f"worker for shard {worker.shard_index} did not report ready "
                f"within {WORKER_START_TIMEOUT}s"
            )
        try:
            ready = worker.conn.recv()
        except (EOFError, OSError) as exc:
            raise DiscoveryError(
                f"worker for shard {worker.shard_index} died during startup"
            ) from exc
        if not isinstance(ready, WorkerReady):
            raise DiscoveryError(
                f"worker for shard {worker.shard_index} sent "
                f"{type(ready).__name__} instead of the ready handshake"
            )
        if ready.protocol_version != PROTOCOL_VERSION:
            raise ConfigurationError(
                f"worker for shard {worker.shard_index} speaks protocol "
                f"{ready.protocol_version}, parent speaks {PROTOCOL_VERSION}"
            )
        worker.ready = ready

    def _start_receiver(self, worker: _Worker) -> None:
        thread = threading.Thread(
            target=self._receive_loop,
            args=(worker,),
            name=f"mate-recv-{worker.shard_index}",
            daemon=True,
        )
        thread.start()
        self._receivers.append(thread)

    # ------------------------------------------------------------------
    # Reply routing
    # ------------------------------------------------------------------
    def _receive_loop(self, worker: _Worker) -> None:
        while True:
            try:
                message = worker.conn.recv()
            except (EOFError, OSError):
                self._worker_died(worker)
                return
            worker.stats.received += 1
            if isinstance(message, (ShardResult, ShardError)):
                self._deliver(message)

    def _deliver(self, message) -> None:
        with self._tasks_lock:
            slot = self._tasks.get(message.task_id)
            if slot is None:
                self.metrics.replies_discarded += 1
                return
            if isinstance(message, ShardResult):
                slot.reply = message
            else:
                # Wake the waiter with the error (slot.reply stays None).
                slot.errors.append(message)
            slot.event.set()

    def _worker_died(self, worker: _Worker) -> None:
        worker.alive = False
        worker.stats.errors += 1
        with self._tasks_lock:
            pending = [
                (task_id, slot)
                for task_id, slot in self._tasks.items()
                if slot.shard_index == worker.shard_index and slot.reply is None
            ]
        for task_id, slot in pending:
            self._deliver(
                ShardError(
                    task_id=task_id,
                    shard_index=slot.shard_index,
                    kind="WorkerCrash",
                    message=f"worker process for shard {worker.shard_index} "
                    "exited before answering",
                )
            )

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(
        self,
        query: QueryTable,
        k: int | None = None,
        *,
        budget=None,
        planner=None,
        sketch=None,
    ) -> DiscoveryResult:
        """Scatter ``query`` across the shard workers and merge the top-k.

        Identical output to :meth:`ShardedMateDiscovery.discover
        <repro.core.parallel.ShardedMateDiscovery.discover>` on the same
        corpus and shard count; additionally honours a per-request
        :class:`~repro.api.request.RequestBudget` by splitting the fetch
        share deterministically across shards and reconciling the ledger on
        gather.  ``planner`` / ``sketch`` options are forwarded verbatim to
        every shard worker: each runs the full planner pipeline on its own
        shard, with sketch-mode pruning against a sketch store the worker
        signs from its shard at its first sketch-mode query (a
        ``max_candidates`` cap therefore applies per shard).
        """
        if self._closed:
            raise DiscoveryError("the process pool is closed")
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")

        # Distributed tracing: when the caller runs under a span (the
        # session's root), open a pool span beneath it and ride its context
        # on every ShardQuery; the workers' finished spans come back on the
        # ShardResults and are re-exported here so the whole cross-process
        # tree lands in the caller's exporter.  One global-int check when
        # tracing is off.
        tracer = pool_span = trace_context = None
        if _trace._ACTIVE:
            entry = _trace.current_entry()
            if entry is not None:
                tracer = entry[0]
                pool_span = tracer.start_span(
                    "pool.discover",
                    attributes={"num_shards": self.num_shards, "k": k},
                )
                trace_context = pool_span.context()
        try:
            return self._discover_traced(
                query, k, budget, planner, sketch, tracer, trace_context
            )
        finally:
            if tracer is not None and pool_span is not None:
                tracer.end_span(pool_span)

    def _discover_traced(
        self, query, k, budget, planner, sketch, tracer, trace_context
    ) -> DiscoveryResult:
        shares = split_budget(
            budget.remaining_pl_fetches if budget is not None else None,
            self.num_shards,
        )
        deadline_left = (
            budget.remaining_seconds() if budget is not None else None
        )

        scatter = StageStats()
        slots: list[_TaskSlot] = []
        with scatter.measure():
            for shard_index in range(self.num_shards):
                slots.append(
                    self._scatter_one(
                        shard_index,
                        query,
                        k,
                        shares[shard_index],
                        deadline_left,
                        planner,
                        sketch,
                        trace_context,
                    )
                )
        scatter.add_items(self.num_shards, self.num_shards)

        gather = StageStats()
        replies: list[ShardResult] = []
        try:
            with gather.measure():
                for slot in slots:
                    replies.append(self._gather_one(slot))
        finally:
            with self._tasks_lock:
                for slot in slots:
                    if slot.message is not None:
                        self._tasks.pop(slot.message.task_id, None)

        if tracer is not None:
            for reply in replies:
                tracer.export_foreign(reply.spans)
        merged = self._merge(replies, k, budget)
        gather.add_items(
            sum(len(reply.result.tables) for reply in replies),
            len(merged.tables),
        )
        merged.counters.stages["scatter"] = scatter
        merged.counters.stages["gather"] = gather
        self.metrics.record(scatter, gather, [r.seconds for r in replies])
        return merged

    def _scatter_one(
        self,
        shard_index: int,
        query: QueryTable,
        k: int,
        share: int | None,
        deadline_left: float | None,
        planner=None,
        sketch=None,
        trace_context=None,
    ) -> _TaskSlot:
        task_id = next(self._task_ids)
        message = ShardQuery(
            task_id=task_id,
            query=query,
            k=k,
            max_pl_fetches=share,
            deadline_seconds=deadline_left,
            planner=planner,
            sketch=sketch,
            trace=trace_context,
        )
        slot = _TaskSlot(shard_index)
        slot.message = message
        worker = self._workers[shard_index]
        with self._tasks_lock:
            self._tasks[task_id] = slot
        if not worker.send(message):
            self._worker_died(worker)
        return slot

    def _gather_one(self, slot: _TaskSlot) -> ShardResult:
        slot.event.wait()
        reply = slot.reply
        if reply is None:
            error = slot.errors[0] if slot.errors else None
            detail = (
                f"{error.kind}: {error.message}"
                if error is not None
                else "no worker answered"
            )
            raise DiscoveryError(
                f"shard {slot.shard_index} failed in the process pool "
                f"({detail})"
            )
        return reply

    def _merge(
        self, replies: list[ShardResult], k: int, budget
    ) -> DiscoveryResult:
        ordered = sorted(replies, key=lambda reply: reply.shard_index)
        merged = merge_discovery_results(
            [reply.result for reply in ordered], k, system=self.system_name
        )
        merged.complete = all(reply.result.complete for reply in ordered)
        # Additive merging is right for counts but not for the sketch-tier
        # recall estimate (identical on every shard — same config, same
        # threshold); restore it to the per-shard value.
        recalls = [
            reply.result.counters.extra["sketch_estimated_recall"]
            for reply in ordered
            if "sketch_estimated_recall" in reply.result.counters.extra
        ]
        if recalls:
            merged.counters.extra["sketch_estimated_recall"] = max(recalls)
        self.last_shard_statistics = [
            ShardStatistics(
                shard_index=reply.shard_index,
                num_tables=len(self.shards[reply.shard_index]),
                pl_items_fetched=reply.result.counters.pl_items_fetched,
                rows_checked=reply.result.counters.rows_checked,
                runtime_seconds=reply.result.counters.runtime_seconds,
            )
            for reply in ordered
        ]
        if budget is not None:
            consumed = sum(reply.consumed_pl_fetches for reply in ordered)
            if budget.remaining_pl_fetches is not None and consumed:
                budget.take_pl_fetches(consumed)
            if any(reply.exhausted for reply in ordered):
                budget.exhausted = True
            if any(reply.expired for reply in ordered):
                budget.expired = True
        return merged

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def statistics(self) -> dict[str, object]:
        """Pool-lifetime serving statistics (the ``/v1/stats`` payload part)."""
        workers = []
        for worker in self._workers:
            entry: dict[str, object] = {
                "shard": worker.shard_index,
                "alive": worker.alive and worker.process.is_alive(),
            }
            entry.update(worker.stats.as_dict())
            if worker.ready is not None:
                entry["tables"] = worker.ready.num_tables
                entry["postings"] = worker.ready.num_postings
            workers.append(entry)
        return {
            "num_shards": self.num_shards,
            "serve": self.metrics.as_dict(),
            "workers": workers,
        }

    def close(self) -> None:
        """Shut every worker down and remove owned segment files (idempotent)."""
        if self._closed:
            return
        self._closed = True
        workers = list(getattr(self, "_workers", ()))
        for worker in workers:
            worker.send(Shutdown())
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.alive = False
            try:
                worker.conn.close()
            except OSError:
                pass
        with self._tasks_lock:
            pending = list(self._tasks.values())
            self._tasks.clear()
        for slot in pending:
            slot.event.set()
        if self._owns_segments_dir:
            shutil.rmtree(self._segments_dir, ignore_errors=True)

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
