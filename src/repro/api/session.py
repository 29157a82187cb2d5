"""The :class:`DiscoverySession` facade: one front door for Algorithm 1.

A session owns the serving state — corpus, one index, engine instances,
and a thread-pool scheduler — and
answers :class:`~repro.api.request.DiscoveryRequest` objects through three
entry points:

* :meth:`DiscoverySession.discover` — one request, one
  :class:`~repro.api.results.SessionResult`;
* :meth:`DiscoverySession.discover_batch` — a (possibly mixed-engine) batch
  with worker-pool scheduling and attributable failures;
* :meth:`DiscoverySession.submit` / :meth:`DiscoverySession.asubmit` —
  future-based and ``async`` wrappers over the session's thread pool.

Engines are resolved by name through an
:class:`~repro.api.registry.EngineRegistry` and cached per configuration
signature, so repeated requests share memoised hash state.

Usage::

    from repro import DiscoveryRequest, DiscoverySession

    with DiscoverySession(corpus, index, config=config) as session:
        result = session.discover(DiscoveryRequest(query=query, k=10))
"""

from __future__ import annotations

import asyncio
import contextvars
import logging
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Iterable

from ..config import MateConfig, ServiceConfig
from ..datamodel import Table, TableCorpus
from ..exceptions import ConfigurationError, DiscoveryError, MateError
from ..index import build_index
from ..metrics import CacheCounters
from ..sketch import SketchIndex
from ..telemetry import SlowQueryEntry, Telemetry
from .registry import DEFAULT_REGISTRY, EngineRegistry, EngineSpec
from .request import DiscoveryRequest
from .results import BatchStats, SessionBatch, SessionResult

#: Structured logger of the session layer (JSON-formatted when the caller
#: installs :func:`repro.telemetry.configure_json_logging`).
_LOGGER = logging.getLogger("repro.session")


def _attach_trace(error: MateError, span) -> MateError:
    """Stamp the current trace id onto an error for log correlation."""
    if span.trace_id:
        error.trace_id = span.trace_id  # type: ignore[attr-defined]
        span.set_attribute("error", str(error))
    return error


class DiscoverySession:
    """Owns corpus + index lifecycle and serves discovery requests.

    Parameters
    ----------
    corpus:
        The table corpus the index was (or will be) built from.
    index:
        The index the session serves: an
        :class:`~repro.index.inverted.InvertedIndex` or a
        :class:`~repro.ingest.live.LiveIndex`.  ``None`` builds a fresh index
        from ``corpus`` (the zero-setup path of the examples).  The index
        memoises each fetched value's block itself, so it is served as it
        is.
    config:
        The :class:`~repro.config.MateConfig` shared by index and engines.
    service_config:
        The serving knobs (batch workers and the
        ``"sharded"`` engine's shard count); see
        :class:`~repro.config.ServiceConfig`.
    registry:
        The engine registry to resolve request engine names against;
        defaults to the process-wide registry of :mod:`repro.api.registry`.
    execution:
        How the ``"sharded"`` engine runs its shards: ``"thread"`` (default,
        in-process, one shard after another) or ``"process"`` — one worker
        process per shard over mmap'd ``.seg`` segments
        (:class:`~repro.serve.pool.ProcessShardPool`), byte-identical top-k,
        true parallelism, and per-request budget support.
    serve_config:
        Process-pool knobs (:class:`~repro.serve.pool.ServeConfig`) for
        ``execution="process"``; ``None`` derives the shard count from
        ``service_config.num_shards``.
    telemetry:
        The session's :class:`~repro.telemetry.Telemetry` bundle (tracer +
        metrics registry + slow-query log).  ``None`` builds a default with
        tracing *disabled* — metrics and the slow log stay live (they are
        nearly free), spans cost one global-int check per request.
    """

    def __init__(
        self,
        corpus: TableCorpus,
        index=None,
        config: MateConfig | None = None,
        service_config: ServiceConfig | None = None,
        registry: EngineRegistry | None = None,
        execution: str = "thread",
        serve_config=None,
        telemetry: Telemetry | None = None,
    ):
        if execution not in ("thread", "process"):
            raise ConfigurationError(
                f'execution must be "thread" or "process", got {execution!r}'
            )
        self.corpus = corpus
        self.config = config or MateConfig()
        self.service_config = service_config or ServiceConfig()
        self.registry = registry or DEFAULT_REGISTRY
        self.execution = execution
        self.serve_config = serve_config
        self._owns_telemetry = telemetry is None
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        if index is None:
            index = build_index(corpus, config=self.config)
        #: The index every engine of the session reads.
        self.index = index
        # Engines are cached per request configuration signature so repeated
        # requests share one instance (and its memoised value hashes); the
        # per-run state of every engine is local to each discover() call.
        self._engines: dict[tuple, tuple[EngineSpec, object]] = {}
        self._engines_lock = threading.Lock()
        # One MinHash-LSH sketch store shared by every cached engine: built
        # on the first sketch-mode request; writes only mark their table id
        # dirty (``_sketch_lock`` guards the set), and the next sketch read
        # re-signs them (``_sketch_refresh`` serialises builds and refreshes).
        self._sketch_index: SketchIndex | None = None
        self._sketch_dirty: set[int] = set()
        self._sketch_lock = threading.Lock()
        self._sketch_refresh = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._closed = False
        self._register_metrics()

    def _register_metrics(self) -> None:
        """Register session-level instruments into the telemetry registry.

        This is where the formerly siloed aggregates join one scrapeable
        surface: request counts and latency live in real instruments, the
        per-run discovery counters and the slow-query log flow in through
        scrape-time callbacks (their owners keep their own types).
        """
        metrics = self.telemetry.metrics
        self._requests_total = metrics.counter(
            "repro_session_requests_total", "Discovery requests accepted"
        )
        self._failures_total = metrics.counter(
            "repro_session_failures_total", "Discovery requests that raised"
        )
        self._request_latency = metrics.histogram(
            "repro_request_latency_seconds",
            "End-to-end session.discover latency",
        )
        self._pl_fetched_total = metrics.counter(
            "repro_discovery_pl_items_fetched_total",
            "Posting-list items fetched across all requests",
        )
        self._tables_evaluated_total = metrics.counter(
            "repro_discovery_tables_evaluated_total",
            "Candidate tables fully evaluated across all requests",
        )
        self._sketch_candidates_total = metrics.counter(
            "repro_sketch_candidates_total",
            "Candidate tables admitted by the sketch tier across all requests",
        )
        metrics.counter_callback(
            "repro_slowlog_recorded_total",
            lambda: self.telemetry.slow_log.recorded_total,
            "Queries recorded by the slow-query log",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the session's scheduler and cached engines (idempotent)."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # Engines owning external resources (the process pool's workers and
        # segment files) expose close(); in-process engines do not.
        with self._engines_lock:
            engines = list(self._engines.values())
            self._engines.clear()
        for _spec, engine in engines:
            closer = getattr(engine, "close", None)
            if callable(closer):
                closer()
        if self._owns_telemetry:
            # A caller-provided bundle (the CLI's, a server's) outlives the
            # session; only the private default is retired here.
            self.telemetry.close()

    def __enter__(self) -> "DiscoverySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _executor(self) -> ThreadPoolExecutor:
        if self._closed:
            raise DiscoveryError("the session is closed")
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=max(self.service_config.max_workers, 1),
                thread_name_prefix="discovery-session",
            )
        return self._pool

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base_index(self):
        """Read-only alias of :attr:`index`.

        Kept only because ``bench_e2e/discover.py`` still reads it; its
        removal waits for the next change to the benchmark (ROADMAP item 1).
        """
        return self.index

    @property
    def cache_counters(self) -> CacheCounters:
        """Always-zero :class:`~repro.metrics.CacheCounters`.

        There is no posting-list cache: the index memoises its fetch blocks
        itself.  Kept only because ``bench_e2e/discover.py`` still reads it;
        its removal waits for the next change to the benchmark (ROADMAP
        item 1).
        """
        return CacheCounters()

    def engines(self) -> list[str]:
        """Names of the engines requests can address in this session."""
        return self.registry.names()

    def cached_engines(self) -> list[object]:
        """The engine instances built so far (one per request signature).

        Introspection for serving layers: a stats endpoint walks these for
        engines exposing ``statistics()`` (the process pool's scatter/gather
        and worker counters) without forcing any engine to be built.
        """
        with self._engines_lock:
            return [engine for _spec, engine in self._engines.values()]

    def sketch_index(self) -> SketchIndex:
        """The session's shared MinHash-LSH sketch store.

        The first call signs every table the index serves, in one
        :meth:`~repro.sketch.SketchIndex.add_tables` batch; every cached
        engine reads the same store afterwards, so one pass serves all
        thresholds (the threshold travels per run, not per store).  Tables
        :meth:`ingest` and :meth:`remove` touched since the last call are
        dropped from the store, and those still visible are signed again in
        one batch (a re-ingested id gets its new columns).  The index's
        visible ids decide what is signed, not the corpus, which keeps the
        tables :meth:`remove` took out of the index.

        Raises :class:`~repro.exceptions.DiscoveryError` naming a visible
        table the corpus does not hold: its rows could not be verified
        either.
        """
        with self._sketch_refresh:
            with self._sketch_lock:
                dirty, self._sketch_dirty = self._sketch_dirty, set()
            store = self._sketch_index
            if store is None:
                store = SketchIndex()
                store.add_tables(self._tables(sorted(self.index.indexed_tables())))
                self._sketch_index = store
            elif dirty:
                try:
                    tables = self._tables(
                        sorted(dirty & self.index.indexed_tables())
                    )
                except DiscoveryError:
                    with self._sketch_lock:  # left for the next read
                        self._sketch_dirty |= dirty
                    raise
                for table_id in dirty:
                    store.remove_table(table_id)
                store.add_tables(tables)
            return store

    def _tables(self, table_ids: list[int]) -> list[Table]:
        """The corpus tables of ``table_ids``; a missing one is named."""
        tables = []
        for table_id in table_ids:
            if table_id not in self.corpus:
                raise DiscoveryError(
                    f"table {table_id} is visible in the index but missing "
                    f"from corpus {self.corpus.name!r}; the sketch tier "
                    "cannot sign it"
                )
            tables.append(self.corpus.get_table(table_id))
        return tables

    # ------------------------------------------------------------------
    # Online ingestion (engine="live" sessions)
    # ------------------------------------------------------------------
    def _mark_sketch_dirty(self, table_id: int) -> None:
        """Leave ``table_id`` for the next :meth:`sketch_index` to re-sign."""
        with self._sketch_lock:
            self._sketch_dirty.add(table_id)

    def ingest(self, table: Table) -> int:
        """Add ``table`` to the session's corpus and live index; returns rows.

        Requires the session to own an online-mutable index (a
        :class:`~repro.ingest.live.LiveIndex`): the write is made durable
        through its WAL, lands in the delta buffer, and is immediately
        discoverable by every subsequent request: every fetch pins a fresh
        snapshot of the index, so no earlier block can serve stale postings.

        Re-ingesting an id that was :meth:`remove`-d replaces the corpus
        entry; re-ingesting a *live* id raises (remove it first).  That pair
        is how a table is edited (Section 5.4, any granularity): ``remove``
        it, then ``ingest`` its edited copy — tables never change in place.
        The pair is not atomic: a request between the two calls does not
        see the table.
        """
        add_table = getattr(self.index, "add_table", None)
        if add_table is None:
            raise DiscoveryError(
                "this session's index does not accept online ingestion; "
                "construct the session with a repro.ingest.LiveIndex"
            )
        # Corpus first, index second: the instant postings become fetchable a
        # concurrent query may verify rows via corpus.get_row, so the table
        # must already be there.  A stale entry of an earlier remove() is
        # replaced (and restored if the index rejects the write).
        stale = None
        if table.table_id in self.corpus:
            stale = self.corpus.remove_table(table.table_id)
        self.corpus.add_table(table)
        try:
            rows = add_table(table)
        except Exception:
            # Not only the index's own refusals: whatever a registered hash
            # function raises must not leave the table behind either.
            self.corpus.remove_table(table.table_id)
            if stale is not None:
                self.corpus.add_table(stale)
            raise
        self._mark_sketch_dirty(table.table_id)
        return rows

    def remove(self, table_id: int) -> int:
        """Remove a table from the session's live view.

        The index masks the table (tombstone + buffer purge on a live
        index); the corpus keeps the :class:`~repro.datamodel.table.Table`
        object so discovery runs pinned to an older snapshot can still
        verify its rows.  Returns the number of physically dropped PL items
        (0 when the table lives only in sealed segments).
        """
        # Gate on the same ingestion capability as ingest(): only an
        # online-mutable index (a LiveIndex) has add_table / remove_table.
        if not hasattr(self.index, "add_table"):
            raise DiscoveryError(
                "this session's index does not support online removal; "
                "construct the session with a repro.ingest.LiveIndex"
            )
        removed = self.index.remove_table(table_id)
        self._mark_sketch_dirty(table_id)
        return removed

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _engine_for(self, request: DiscoveryRequest) -> tuple[EngineSpec, object]:
        spec = self.registry.get(request.engine)
        signature = request.engine_signature()
        with self._engines_lock:
            cached = self._engines.get(signature)
        if cached is not None:
            return cached
        # Build outside the lock: factories can be expensive (the josie and
        # prefix_tree engines build whole indexes) and must not serialise
        # concurrent dispatch to other engines.  First insert wins.
        built = (spec, spec.factory(self, request))
        with self._engines_lock:
            cached = self._engines.setdefault(signature, built)
        if cached is not built:
            # Lost the build race: another thread's engine is the cached one.
            # Dispose of ours — engines can own real resources (the process
            # pool holds worker processes and mmap'd segments).
            closer = getattr(built[1], "close", None)
            if callable(closer):
                closer()
        return cached

    def _resolve_k(self, request: DiscoveryRequest) -> int:
        return request.k if request.k is not None else self.config.k

    @staticmethod
    def _run_kwargs(
        spec: EngineSpec, request: DiscoveryRequest, budget, engine=None
    ) -> dict[str, object]:
        """Per-run keyword arguments, refusing knobs the engine cannot honour.

        Limits, planner options, and sketch options are enforced by engines
        registered with the matching capability; a request carrying any of
        them is refused on any other engine (the session never silently
        drops a knob it cannot enforce).  Capability can also be
        instance-level: one registered name may build engines of different
        capability (the ``"sharded"`` spec builds a thread engine without
        budget support or a process pool with it), so truthy
        ``engine.supports_budget`` / ``supports_planner`` /
        ``supports_sketch`` attributes count too.
        """
        kwargs: dict[str, object] = {}
        if budget is not None:
            if not (
                spec.supports_budget
                or getattr(engine, "supports_budget", False)
            ):
                raise DiscoveryError(
                    f"engine {spec.name!r} does not support per-request "
                    "limits (deadline_seconds / max_pl_fetches)"
                )
            kwargs["budget"] = budget
        if request.planner_requested:
            if not (
                spec.supports_planner
                or getattr(engine, "supports_planner", False)
            ):
                raise DiscoveryError(
                    f"engine {spec.name!r} does not support planner options "
                    "(DiscoveryRequest.planner)"
                )
            kwargs["planner"] = request.planner
        if request.sketch_requested:
            if not (
                spec.supports_sketch
                or getattr(engine, "supports_sketch", False)
            ):
                raise DiscoveryError(
                    f"engine {spec.name!r} does not support the sketch tier "
                    "(DiscoveryRequest.sketch / planner mode 'sketch')"
                )
            kwargs["sketch"] = request.sketch
        return kwargs

    def discover(self, request: DiscoveryRequest) -> SessionResult:
        """Answer one request and return its :class:`SessionResult`.

        Per-request limits (``deadline_seconds`` / ``max_pl_fetches``) are
        enforced by engines registered with ``supports_budget``, and
        non-default planner options by engines registered with
        ``supports_planner``; a request carrying either is refused on any
        other engine (the session never silently drops a knob it cannot
        enforce).  Errors raised anywhere below this call carry the engine
        name and request label (and, with tracing enabled, the trace id).

        The call runs under a ``session.discover`` root span; downstream
        layers (the executor's stage spans, the process pool's worker
        spans) attach to it through context propagation.  Every request
        feeds the telemetry registry's request counter and latency
        histogram, and runs crossing the slow-query threshold land in the
        session's :class:`~repro.telemetry.SlowQueryLog`.
        """
        telemetry = self.telemetry
        started = time.perf_counter()
        self._requests_total.inc()
        with telemetry.tracer.span(
            "session.discover",
            attributes={"request": request.label, "engine": request.engine},
        ) as span:
            try:
                spec, engine = self._engine_for(request)
            except MateError as error:
                self._failures_total.inc()
                raise _attach_trace(error.with_context(request=request), span)
            k = self._resolve_k(request)
            budget = request.make_budget()
            try:
                kwargs = self._run_kwargs(spec, request, budget, engine)
                response = engine.discover(request.query, k=k, **kwargs)
            except MateError as error:
                self._failures_total.inc()
                raise _attach_trace(
                    error.with_context(engine=spec.name, request=request), span
                )
        result = SessionResult(request=request, engine=spec.name, response=response)
        self._observe_request(request, spec.name, result, budget, started, span)
        return result

    def _observe_request(
        self, request, engine_name, result, budget, started, span
    ) -> None:
        """Feed one finished request into metrics and the slow-query log."""
        elapsed = time.perf_counter() - started
        self._request_latency.observe(elapsed)
        counters = result.counters
        self._pl_fetched_total.inc(counters.pl_items_fetched)
        self._tables_evaluated_total.inc(counters.tables_evaluated)
        sketch_candidates = counters.extra.get("sketch_candidates")
        if sketch_candidates is not None:
            self._sketch_candidates_total.inc(sketch_candidates)
        slow_log = self.telemetry.slow_log
        if not slow_log.should_record(elapsed):
            return
        budget_state: dict[str, object] = {}
        if budget is not None:
            budget_state = {
                "max_pl_fetches": request.max_pl_fetches,
                "remaining_pl_fetches": budget.remaining_pl_fetches,
                "deadline_seconds": request.deadline_seconds,
                "exhausted": budget.exhausted,
                "expired": budget.expired,
            }
        plan = result.plan_explain()
        slow_log.record(
            SlowQueryEntry(
                request=request.label,
                engine=engine_name,
                seconds=elapsed,
                threshold_seconds=slow_log.threshold_seconds,
                trace_id=span.trace_id or None,
                stages={
                    name: stats.as_dict()
                    for name, stats in counters.stages.items()
                },
                budget=budget_state,
                plan=plan,
            )
        )

    # ------------------------------------------------------------------
    # Batching
    # ------------------------------------------------------------------
    def discover_batch(
        self,
        requests: Iterable[DiscoveryRequest],
        on_error: str = "raise",
    ) -> SessionBatch:
        """Answer every request and return results plus aggregate statistics.

        Results come back in submission order and are identical to what
        sequential :meth:`discover` calls would produce.  The session
        schedules the queries over ``service_config.max_workers`` threads.

        ``on_error`` controls failure handling: ``"raise"`` (default)
        propagates the first attributable error, ``"collect"`` keeps going —
        failed slots hold ``None``, the exceptions are returned on the batch,
        and the :class:`~repro.api.results.BatchStats` carry one attribution
        line per failure.

        Every request runs under a copy of the caller's :mod:`contextvars`
        context, as in :meth:`submit`, so a span opened around the batch
        parents each request's ``session.discover`` on the pool too.
        """
        if on_error not in ("raise", "collect"):
            raise DiscoveryError(
                f'on_error must be "raise" or "collect", got {on_error!r}'
            )
        request_list = list(requests)
        started = time.perf_counter()

        def run_one(request: DiscoveryRequest):
            try:
                return self.discover(request)
            except MateError as error:
                if on_error == "raise":
                    raise
                return error

        workers = self.service_config.max_workers
        if workers > 1 and len(request_list) > 1:
            # Reuse the session's pool — no per-batch thread churn.  Pool
            # threads do not inherit the caller's context: copy it per request.
            contexts = [contextvars.copy_context() for _ in request_list]
            outcomes = list(
                self._executor().map(
                    lambda context, request: context.run(run_one, request),
                    contexts,
                    request_list,
                )
            )
        else:
            outcomes = [run_one(request) for request in request_list]

        results: list[SessionResult | None] = []
        failures: list[Exception] = []
        for request, outcome in zip(request_list, outcomes):
            if isinstance(outcome, Exception):
                failures.append(outcome)
                results.append(None)
                # Surface the failure through the structured logger, keyed
                # by the query's trace id (stamped onto the error by
                # discover()'s root span) — BatchStats.failures alone made
                # batch errors invisible to log-based diagnosis.
                _LOGGER.error(
                    "batch query failed: %s",
                    outcome,
                    extra={
                        "trace_id": getattr(outcome, "trace_id", None),
                        "request_label": request.label,
                        "engine": request.engine,
                    },
                )
            else:
                results.append(outcome)

        resolved_ks = {self._resolve_k(request) for request in request_list}
        stats = BatchStats(
            num_queries=len(request_list),
            k=resolved_ks.pop() if len(resolved_ks) == 1 else 0,
            batch_seconds=time.perf_counter() - started,
            failed_queries=len(failures),
            failures=[str(error) for error in failures],
        )
        return SessionBatch(results=results, stats=stats, failures=failures)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def submit(self, request: DiscoveryRequest) -> "Future[SessionResult]":
        """Schedule ``request`` on the session's thread pool (a Future).

        The submitting thread's :mod:`contextvars` context travels with the
        task, so a span opened by the caller (the HTTP front end's
        per-request span) parents the worker-side ``session.discover``.
        """
        context = contextvars.copy_context()
        return self._executor().submit(context.run, self.discover, request)

    async def asubmit(self, request: DiscoveryRequest) -> SessionResult:
        """``await``-able :meth:`discover`, run on the session's thread pool."""
        return await asyncio.wrap_future(self.submit(request))
