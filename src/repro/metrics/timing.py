"""Per-stage timing and volume accounting of the discovery pipeline.

Request-path timing goes through tracer spans
(:meth:`repro.telemetry.trace.Tracer.span` /
:meth:`~repro.telemetry.trace.Tracer.emit`), which capture a duration *and*
the trace identity, so the measurement lands in the span tree, the metrics
histograms, and the slow-query log.  :class:`StageStats` accumulates a
stage's wall clock and volume across its invocations; the executor converts
each stage's stats into synthetic spans at the end of a run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator


@dataclass
class StageStats:
    """Wall-clock and volume accounting for one pipeline stage.

    The planner/executor pipeline (:mod:`repro.plan`) runs discovery as a
    sequence of named operators; each operator accumulates one
    :class:`StageStats` across its invocations (one per request, summed
    when counters merge).  The stats travel on
    :attr:`DiscoveryCounters.stages <repro.metrics.counters.DiscoveryCounters.stages>`
    so every front door (CLI ``--json``, the session results, the experiment
    harness) sees the same per-stage breakdown.
    """

    #: Number of times the stage ran (1 per request for the planner's
    #: stages).
    calls: int = 0
    #: Total wall-clock seconds spent inside the stage.
    seconds: float = 0.0
    #: Work items the stage received (stage-specific unit, e.g. probe
    #: values for candidate generation, candidate rows for the prefilter).
    items_in: int = 0
    #: Work items the stage let through.
    items_out: int = 0

    @contextmanager
    def measure(self) -> Iterator["StageStats"]:
        """Time one invocation of the stage (increments :attr:`calls`)."""
        self.calls += 1
        started = time.perf_counter()
        try:
            yield self
        finally:
            self.seconds += time.perf_counter() - started

    def add_items(self, items_in: int, items_out: int) -> None:
        """Record one invocation's in/out volume."""
        self.items_in += items_in
        self.items_out += items_out

    def merge(self, other: "StageStats") -> None:
        """Accumulate another stage's stats into this one (in place)."""
        self.calls += other.calls
        self.seconds += other.seconds
        self.items_in += other.items_in
        self.items_out += other.items_out

    def as_dict(self) -> dict[str, float]:
        """Return the stats as a plain dictionary (for reporting)."""
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "items_in": self.items_in,
            "items_out": self.items_out,
        }
