"""End-to-end observability: tracing, metrics, structured logs, slow queries.

The subsystem has three legs, tied together by the :class:`Telemetry`
container a :class:`~repro.api.session.DiscoverySession` owns:

* :mod:`repro.telemetry.trace` — request tracing: spans with
  ``trace_id``/``span_id``/``parent_id``, contextvar propagation through
  session → executor → stages, cross-process propagation over the serve
  pool's pipe protocol, and pluggable exporters (JSONL for offline
  tree reconstruction);
* :mod:`repro.telemetry.metrics` — a thread-safe
  :class:`~repro.telemetry.metrics.MetricsRegistry` of counters, gauges,
  and fixed-bucket latency histograms, rendered as Prometheus text by the
  HTTP front end's ``GET /metrics``;
* :mod:`repro.telemetry.logs` / :mod:`repro.telemetry.slowlog` —
  trace-correlated JSON logging and the threshold-triggered
  :class:`~repro.telemetry.slowlog.SlowQueryLog` behind ``GET /v1/slow``
  and ``repro slowlog``.

Telemetry is off by default and engineered to stay out of the hot path
when off: every instrumented branch gates on a module-level "any enabled
tracer?" integer before touching contextvars or clocks (``bench_e2e``
reports the session's own cost as ``api.session_self_ms`` and the cost of
tracing as ``trace.overhead_ratio``).
"""

from __future__ import annotations

from pathlib import Path

from .logs import JsonLogFormatter, configure_json_logging
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from .slowlog import SlowQueryEntry, SlowQueryLog
from .trace import (
    CollectingExporter,
    InMemoryExporter,
    JsonLinesExporter,
    NullExporter,
    Span,
    SpanExporter,
    TraceContext,
    Tracer,
    current_span,
    current_trace_id,
    read_trace_file,
    span_tree,
)


class Telemetry:
    """One request-path observability bundle: tracer + metrics + slow log.

    Sessions default to :meth:`Telemetry.disabled` — a never-sampling
    tracer, an (always live, nearly free) metrics registry, and a slow-query
    log — so callers opt into tracing explicitly via
    :meth:`Telemetry.with_trace_file` or by handing in their own
    :class:`~repro.telemetry.trace.Tracer`.
    """

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        slow_log: SlowQueryLog | None = None,
    ):
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slow_log = slow_log if slow_log is not None else SlowQueryLog()

    @classmethod
    def disabled(cls) -> "Telemetry":
        """Metrics and slow log live, tracing off (the session default)."""
        return cls()

    @classmethod
    def with_trace_file(
        cls,
        path: str | Path,
        slow_threshold_seconds: float | None = None,
    ) -> "Telemetry":
        """Full telemetry with spans exported as JSONL to ``path``."""
        slow_log = (
            SlowQueryLog(threshold_seconds=slow_threshold_seconds)
            if slow_threshold_seconds is not None
            else SlowQueryLog()
        )
        return cls(tracer=Tracer(JsonLinesExporter(path)), slow_log=slow_log)

    def close(self) -> None:
        """Retire the tracer and flush/close its exporter (idempotent)."""
        self.tracer.close()


__all__ = [
    "CollectingExporter",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "InMemoryExporter",
    "JsonLinesExporter",
    "JsonLogFormatter",
    "MetricsRegistry",
    "NullExporter",
    "SlowQueryEntry",
    "SlowQueryLog",
    "Span",
    "SpanExporter",
    "Telemetry",
    "TraceContext",
    "Tracer",
    "configure_json_logging",
    "current_span",
    "current_trace_id",
    "read_trace_file",
    "span_tree",
]
