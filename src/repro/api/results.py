"""Response objects of the unified discovery API.

:class:`SessionResult` pairs the engine's
:class:`~repro.core.results.DiscoveryResult` with the originating
:class:`~repro.api.request.DiscoveryRequest`, so a response is always
attributable and serialisable on its own.  :class:`SessionBatch` is the
batch counterpart: per-request results in submission order plus the
aggregate :class:`BatchStats`.

Both serialise through the shared envelope of :mod:`repro.api.schema`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..core.results import DiscoveryResult
from .schema import KIND_BATCH_RESULT, KIND_DISCOVERY_RESULT, json_envelope

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from .request import DiscoveryRequest


@dataclass
class SessionResult:
    """One answered discovery request."""

    #: The request that produced this result.
    request: "DiscoveryRequest"
    #: The registered engine name the session dispatched to.
    engine: str
    #: The engine's raw result (tables, counters, system label).
    response: DiscoveryResult

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def tables(self):
        """The ranked :class:`~repro.core.results.TableResult` entries."""
        return self.response.tables

    @property
    def counters(self):
        """The run's :class:`~repro.metrics.counters.DiscoveryCounters`."""
        return self.response.counters

    @property
    def k(self) -> int:
        """The ``k`` the run was answered with."""
        return self.response.k

    @property
    def complete(self) -> bool:
        """Whether the run saw its full search space (no limit fired)."""
        return self.response.complete

    def result_tuples(self) -> list[tuple[int, int]]:
        """``(table_id, joinability)`` pairs, best first."""
        return self.response.result_tuples()

    def plan_explain(self) -> dict | None:
        """The executed query plan (seed column, per-column counts).

        ``None`` when the engine ran outside the planner/executor pipeline
        (baselines).
        """
        return self.response.plan_explain()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Return the stable JSON-serialisable response document.

        The field names and the ``schema_version`` handling are shared with
        every other machine-readable output of the repository (see
        :mod:`repro.api.schema`).
        """
        return json_envelope(
            KIND_DISCOVERY_RESULT,
            {
                "request": {
                    "id": self.request.request_id,
                    "label": self.request.label,
                    "engine": self.request.engine,
                    "query_table": self.request.query.table.name,
                    "key_columns": list(self.request.query.key_columns),
                    "k": self.request.k,
                    "deadline_seconds": self.request.deadline_seconds,
                    "max_pl_fetches": self.request.max_pl_fetches,
                    "planner_mode": self.request.planner.mode,
                    "sketch_threshold": self.request.sketch.threshold,
                    "sketch_max_candidates": self.request.sketch.max_candidates,
                },
                "engine": self.engine,
                "system": self.response.system,
                "k": self.response.k,
                "complete": self.response.complete,
                "tables": [entry.as_dict() for entry in self.response.tables],
                "counters": self.response.counters.as_dict(),
                # Schema v2 additions: the per-stage breakdown of the
                # pipeline and the executed query plan (both empty/None for
                # engines outside the planner pipeline).
                "stages": self.response.counters.stages_dict(),
                "plan": self.plan_explain(),
            },
        )


@dataclass
class BatchStats:
    """Aggregate accounting of one :class:`SessionBatch`.

    Failures inside a batch are attributable (errors carry the engine name
    and request label): ``failed_queries`` counts the requests that raised,
    ``failures`` keeps one attribution line each.
    """

    #: Number of queries submitted in the batch (including failed ones).
    num_queries: int = 0
    #: ``k`` used for every query of the batch (0 when requests disagree).
    k: int = 0
    #: Wall-clock duration of the whole batch in seconds.
    batch_seconds: float = 0.0
    #: Requests that raised instead of producing a result.
    failed_queries: int = 0
    #: One attribution line per failure (engine name + request label + error).
    failures: list[str] = field(default_factory=list)

    @property
    def queries_per_second(self) -> float:
        """Batch throughput (0.0 before any timed work)."""
        if self.batch_seconds <= 0.0:
            return 0.0
        return self.num_queries / self.batch_seconds

    def as_dict(self) -> dict[str, float]:
        """Return the statistics (plus derived metrics) as a dictionary."""
        return {
            "num_queries": self.num_queries,
            "k": self.k,
            "batch_seconds": self.batch_seconds,
            "queries_per_second": self.queries_per_second,
            "failed_queries": self.failed_queries,
        }


@dataclass
class SessionBatch:
    """Per-request results plus aggregate statistics of one batch.

    ``results`` is in submission order.  When the batch ran with
    ``on_error="collect"``, slots whose request failed hold ``None`` and the
    corresponding exception is kept (in order of occurrence) in
    :attr:`failures`; the aggregate :attr:`stats` then carries one
    attribution line per failure.
    """

    results: list["SessionResult | None"]
    stats: BatchStats
    failures: list[Exception] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator["SessionResult | None"]:
        return iter(self.results)

    def to_dict(self) -> dict:
        """Return the stable JSON-serialisable batch document."""
        return json_envelope(
            KIND_BATCH_RESULT,
            {
                "results": [
                    None if result is None else result.to_dict()
                    for result in self.results
                ],
                "stats": self.stats.as_dict(),
                "failures": [str(error) for error in self.failures],
            },
        )
