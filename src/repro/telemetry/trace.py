"""Request tracing: spans, context propagation, and pluggable exporters.

A :class:`Tracer` produces :class:`Span` objects — ``trace_id`` /
``span_id`` / ``parent_id`` identifiers, a wall-clock start, a monotonic
duration, and free-form attributes — and keeps the *current* span in a
:mod:`contextvars` context variable so nested layers (session → executor →
stage) attach children without any signature plumbing.  Spans cross the
process-pool IPC boundary by value: the parent puts a :class:`TraceContext`
on each ``ShardQuery``, the worker runs its engine under a local tracer
with a :class:`CollectingExporter`, and the finished span dictionaries ride
back on ``ShardResult`` where the parent re-exports them — so one JSONL
file (:class:`JsonLinesExporter`) reconstructs the full cross-process tree.

Overhead discipline: all hot-path instrumentation first checks the
module-level :data:`_ACTIVE` counter (the number of live *enabled*
tracers).  When no tracer is enabled anywhere in the process — the default
for every session — that check is a single global-int truthiness test and
nothing else runs: no contextvar lookup, no span allocation, no clock read.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterator

#: Number of *enabled* tracers alive in this process.  Hot paths gate every
#: telemetry branch on this global int being non-zero; see the module
#: docstring for why this must stay a plain attribute read.
_ACTIVE = 0
_ACTIVE_LOCK = threading.Lock()

#: The innermost open span of the current execution context, as a
#: ``(tracer, span)`` pair (``None`` outside any span).
_CURRENT: ContextVar["tuple[Tracer, Span] | None"] = ContextVar(
    "repro_current_span", default=None
)


def current_entry() -> "tuple[Tracer, Span] | None":
    """The current ``(tracer, span)`` pair, or ``None`` outside any span."""
    return _CURRENT.get()


def current_span() -> "Span | None":
    """The innermost open span of this execution context, if any."""
    entry = _CURRENT.get()
    return entry[1] if entry is not None else None


def current_trace_id() -> str | None:
    """The trace id of the current span (``None`` outside any span)."""
    span = current_span()
    return span.trace_id if span is not None else None


def new_id(nbytes: int = 8) -> str:
    """A random lowercase-hex identifier (collision-safe across processes)."""
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """The picklable cross-boundary form of a span: trace id + parent id.

    Rides on :class:`~repro.serve.protocol.ShardQuery` (protocol v3) and in
    the ``X-Trace-Id`` HTTP header so child spans created in another
    process (or for another request hop) parent correctly.
    """

    trace_id: str
    span_id: str | None = None


@dataclass
class Span:
    """One timed operation in a trace tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None = None
    #: Wall-clock start (``time.time()``), for cross-process ordering.
    start: float = 0.0
    #: Duration measured with the monotonic clock (``time.perf_counter``).
    duration: float = 0.0
    attributes: dict[str, object] = field(default_factory=dict)
    _started_monotonic: float = field(default=0.0, repr=False)

    def set_attribute(self, key: str, value: object) -> None:
        """Attach one attribute (scalar, JSON-serialisable) to the span."""
        self.attributes[key] = value

    def context(self) -> TraceContext:
        """The propagation context naming this span as the parent."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def as_dict(self) -> dict[str, object]:
        """The exported (JSONL) form of a finished span."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "pid": os.getpid(),
            "attributes": dict(self.attributes),
        }


class _NoopSpan(Span):
    """The span handed out by a disabled tracer: every operation is a no-op."""

    def __init__(self) -> None:
        super().__init__(name="noop", trace_id="", span_id="")

    def set_attribute(self, key: str, value: object) -> None:  # noqa: ARG002
        return None


#: Shared inert span instance (disabled tracers allocate nothing per span).
NOOP_SPAN = _NoopSpan()


class SpanExporter:
    """Where finished spans go.  Subclasses override :meth:`export`."""

    def export(self, span: dict[str, object]) -> None:  # noqa: ARG002
        """Receive one finished span dictionary."""
        return None

    def close(self) -> None:
        """Release any resources (idempotent)."""
        return None


class NullExporter(SpanExporter):
    """Discards every span (the disabled default)."""


class InMemoryExporter(SpanExporter):
    """Keeps finished spans in a list — tests and the worker side use this."""

    def __init__(self) -> None:
        self.spans: list[dict[str, object]] = []
        self._lock = threading.Lock()

    def export(self, span: dict[str, object]) -> None:
        with self._lock:
            self.spans.append(span)

    def drain(self) -> list[dict[str, object]]:
        """Return and clear the collected spans."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


#: Worker-side alias: a shard worker collects its spans in memory and ships
#: them back to the pool parent on the ``ShardResult``.
CollectingExporter = InMemoryExporter


class JsonLinesExporter(SpanExporter):
    """Appends one JSON object per finished span to a file (thread-safe)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle: IO[str] | None = self.path.open("a", encoding="utf-8")

    def export(self, span: dict[str, object]) -> None:
        line = json.dumps(span, sort_keys=True, default=str)
        with self._lock:
            if self._handle is None:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Tracer:
    """Creates spans, keeps the current-span context, exports on end."""

    def __init__(self, exporter: SpanExporter | None = None, enabled: bool = True):
        self.exporter = exporter or NullExporter()
        self.enabled = enabled
        self._counted = False
        if enabled:
            global _ACTIVE
            with _ACTIVE_LOCK:
                _ACTIVE += 1
            self._counted = True

    def close(self) -> None:
        """Retire the tracer: drop the active count, close the exporter."""
        if self._counted:
            global _ACTIVE
            with _ACTIVE_LOCK:
                _ACTIVE -= 1
            self._counted = False
        self.exporter.close()

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_span(
        self,
        name: str,
        parent: "Span | TraceContext | None" = None,
        attributes: dict[str, object] | None = None,
    ) -> Span:
        """Open a span (child of ``parent``, else of the current span)."""
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            parent = current_span()
        if parent is None:
            trace_id, parent_id = new_id(), None
        elif isinstance(parent, TraceContext):
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent_id,
            start=time.time(),
            attributes=dict(attributes or {}),
        )
        span._started_monotonic = time.perf_counter()
        return span

    def end_span(self, span: Span) -> None:
        """Close ``span`` (computing its duration) and export it."""
        if not self.enabled or span is NOOP_SPAN:
            return
        if span.duration == 0.0 and span._started_monotonic:
            span.duration = time.perf_counter() - span._started_monotonic
        self.exporter.export(span.as_dict())

    @contextmanager
    def span(
        self,
        name: str,
        parent: "Span | TraceContext | None" = None,
        attributes: dict[str, object] | None = None,
    ) -> Iterator[Span]:
        """Context manager: open a span, make it current, end on exit."""
        if not self.enabled:
            yield NOOP_SPAN
            return
        span = self.start_span(name, parent=parent, attributes=attributes)
        token = _CURRENT.set((self, span))
        try:
            yield span
        finally:
            _CURRENT.reset(token)
            self.end_span(span)

    def emit(
        self,
        name: str,
        parent: "Span | TraceContext",
        duration: float,
        attributes: dict[str, object] | None = None,
        start: float | None = None,
    ) -> Span:
        """Export a pre-measured (synthetic) span without opening it.

        The executor turns each stage's accumulated
        :class:`~repro.metrics.timing.StageStats` into one aggregate child
        span this way: the stage loop keeps its inlined ``perf_counter``
        timing (zero extra hot-loop cost) and the tracer only materialises
        the totals at the end of the run.  Returns the exported span so
        callers can chain children off it.
        """
        if not self.enabled:
            return NOOP_SPAN
        parent_ctx = (
            parent if isinstance(parent, TraceContext) else parent.context()
        )
        span = Span(
            name=name,
            trace_id=parent_ctx.trace_id,
            span_id=new_id(),
            parent_id=parent_ctx.span_id,
            start=time.time() - duration if start is None else start,
            duration=duration,
            attributes=dict(attributes or {}),
        )
        self.exporter.export(span.as_dict())
        return span

    def export_foreign(self, spans: "list[dict[str, object]] | tuple") -> None:
        """Re-export spans finished elsewhere (a worker process's batch)."""
        if not self.enabled:
            return
        for span in spans:
            self.exporter.export(dict(span))


def read_trace_file(path: str | Path) -> list[dict[str, object]]:
    """Load every span from a :class:`JsonLinesExporter` file."""
    spans = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def span_tree(
    spans: list[dict[str, object]],
) -> dict[str | None, list[dict[str, object]]]:
    """Group spans by ``parent_id`` (``None`` holds the roots)."""
    children: dict[str | None, list[dict[str, object]]] = {}
    for span in spans:
        children.setdefault(span.get("parent_id"), []).append(span)  # type: ignore[arg-type]
    return children


__all__ = [
    "CollectingExporter",
    "InMemoryExporter",
    "JsonLinesExporter",
    "NOOP_SPAN",
    "NullExporter",
    "Span",
    "SpanExporter",
    "TraceContext",
    "Tracer",
    "current_entry",
    "current_span",
    "current_trace_id",
    "new_id",
    "read_trace_file",
    "span_tree",
]
