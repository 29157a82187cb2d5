"""In-memory span recorder of the traced run (``--trace 1``).

The benchmark times the program from outside: for the duration of a traced
run it installs timing wrappers around *public* per-request or per-table
callables of each layer (never per-row ones), records one span per call —
name, start, end, the span that caused it, and the request it belongs to —
and removes the wrappers again.  End-to-end metrics are always measured
with no wrapper installed.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  Callables that run once per candidate table (the four plan
stages) are *folded*: their calls accumulate into one aggregate child span
per enclosing span, carrying the call count, so a request costs a handful
of spans however many tables it touches.
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None
    request_id: int | None
    #: 1 for a real call; the call count of a folded aggregate.
    calls: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    """An open span plus the folded aggregates opened directly under it."""

    __slots__ = ("span", "folded")

    def __init__(self, span: Span):
        self.span = span
        self.folded: dict[str, _Frame] = {}

    def closed_spans(self) -> list[Span]:
        """This frame's span and, recursively, its folded aggregates."""
        spans = [self.span]
        for frame in self.folded.values():
            spans.extend(frame.closed_spans())
        return spans


class SpanRecorder:
    """Collects spans; safe to use from several client threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._next_request = 0
        self._installed: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self, request: bool = False) -> int:
        with self._lock:
            if request:
                self._next_request += 1
                return self._next_request
            self._next_span += 1
            return self._next_span

    @contextmanager
    def span(self, name: str, request_root: bool = False):
        """Record the enclosed block as one span under the current one."""
        stack = self._stack()
        parent = stack[-1].span if stack else None
        if request_root or parent is None:
            request_id = self._new_id(request=True) if request_root else None
        else:
            request_id = parent.request_id
        span = Span(
            span_id=self._new_id(),
            name=name,
            start=perf_counter(),
            end=0.0,
            parent_id=None if parent is None else parent.span_id,
            request_id=request_id,
        )
        frame = _Frame(span)
        stack.append(frame)
        try:
            yield span
        finally:
            span.end = perf_counter()
            stack.pop()
            closed = frame.closed_spans()
            with self._lock:
                self.spans.extend(closed)

    def add_span(
        self, name: str, start: float, end: float, request_id: int | None = None
    ) -> None:
        """Record an already-measured interval (client-side HTTP phases)."""
        span = Span(self._new_id(), name, start, end, None, request_id)
        with self._lock:
            self.spans.append(span)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attribute: str,
        name: str,
        *,
        request_root: bool = False,
        fold: bool = False,
    ) -> None:
        """Time ``owner.attribute`` (class, module or instance) as ``name``."""
        original = getattr(owner, attribute)
        was_own = attribute in vars(owner)
        # The raw dict entry, so a staticmethod is restored as one.
        saved = vars(owner)[attribute] if was_own else None
        recorder = self

        if fold:

            def wrapper(*args, **kwargs):
                stack = recorder._stack()
                if not stack:
                    return original(*args, **kwargs)
                parent = stack[-1]
                frame = parent.folded.get(name)
                started = perf_counter()
                if frame is None:
                    # One aggregate span per enclosing span: it starts at
                    # the first call and is as long as all calls together.
                    frame = parent.folded[name] = _Frame(
                        Span(
                            span_id=recorder._new_id(),
                            name=name,
                            start=started,
                            end=started,
                            parent_id=parent.span.span_id,
                            request_id=parent.span.request_id,
                            calls=0,
                        )
                    )
                stack.append(frame)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()
                    frame.span.end += perf_counter() - started
                    frame.span.calls += 1

        else:

            def wrapper(*args, **kwargs):
                with recorder.span(name, request_root=request_root):
                    return original(*args, **kwargs)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attribute, wrapper)
        self._installed.append((owner, attribute, saved, was_own))

    def remove_wrappers(self) -> None:
        """Restore every wrapped callable (reverse order, idempotent)."""
        while self._installed:
            owner, attribute, saved, was_own = self._installed.pop()
            if was_own:
                setattr(owner, attribute, saved)
            else:
                delattr(owner, attribute)

    @contextmanager
    def installed(self, targets):
        """Install ``(owner, attribute, name, options)`` wrappers for a block."""
        try:
            for owner, attribute, name, options in targets:
                self.wrap(owner, attribute, name, **options)
            yield self
        finally:
            self.remove_wrappers()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, int]]:
        """Span name -> (summed duration, summed call count)."""
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for span in self.spans:
            totals[span.name][0] += span.duration
            totals[span.name][1] += span.calls
        return {name: (value[0], int(value[1])) for name, value in totals.items()}

    def seconds(self, name: str) -> float:
        return self.totals().get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return self.totals().get(name, (0.0, 0))[1]

    def write_jsonl(self, path: Path) -> Path:
        """One JSON object per span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        return path


def read_jsonl(path: Path) -> list[Span]:
    """The spans of a file written by :meth:`SpanRecorder.write_jsonl`."""
    with open(path, encoding="utf-8") as handle:
        return [Span(**json.loads(line)) for line in handle]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span name -> summed self time (duration minus child coverage)."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.duration
    result: dict[str, float] = defaultdict(float)
    for span in spans:
        result[span.name] += max(0.0, span.duration - covered[span.span_id])
    return dict(result)
