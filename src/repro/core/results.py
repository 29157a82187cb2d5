"""Result containers returned by the discovery engines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..metrics import DiscoveryCounters
from .topk import RankedTable

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..plan.planner import PlanReport


@dataclass(frozen=True)
class TableResult:
    """One discovered joinable table."""

    table_id: int
    joinability: int
    #: The best column mapping found during verification: for each query key
    #: column (in key order) the index of the matching candidate-table column.
    column_mapping: tuple[int, ...] | None = None
    table_name: str = ""

    def as_dict(self) -> dict[str, object]:
        """Return the result as a plain dictionary (for reporting)."""
        return {
            "table_id": self.table_id,
            "table_name": self.table_name,
            "joinability": self.joinability,
            "column_mapping": self.column_mapping,
        }


@dataclass
class DiscoveryResult:
    """The outcome of one discovery run (any system)."""

    system: str
    k: int
    tables: list[TableResult] = field(default_factory=list)
    counters: DiscoveryCounters = field(default_factory=DiscoveryCounters)
    #: Whether the run saw its full search space.  ``False`` only when a
    #: per-request limit (``deadline_seconds`` / ``max_pl_fetches``, see
    #: :mod:`repro.api.request`) stopped the run early; the exact pruning
    #: rules of Algorithm 1 never clear this flag.
    complete: bool = True
    #: Execution trace of the planner/executor pipeline (seed column,
    #: per-column counts, fetched volume); ``None`` for engines outside
    #: that pipeline.
    plan: "PlanReport | None" = None

    def plan_explain(self) -> dict[str, object] | None:
        """The plan's JSON-facing explanation, or ``None`` without a plan."""
        if self.plan is None:
            return None
        return self.plan.as_dict()

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock runtime of the run."""
        return self.counters.runtime_seconds

    @property
    def precision(self) -> float:
        """Row-filter precision of the run (Section 7.4)."""
        return self.counters.precision

    def result_tuples(self) -> list[tuple[int, int]]:
        """Return ``(table_id, joinability)`` pairs, best first."""
        return [(t.table_id, t.joinability) for t in self.tables]

    def joinability_of(self, table_id: int) -> int:
        """Return the reported joinability of ``table_id`` (0 if absent)."""
        for entry in self.tables:
            if entry.table_id == table_id:
                return entry.joinability
        return 0

    @classmethod
    def from_ranked(
        cls,
        system: str,
        k: int,
        ranked: list[RankedTable],
        counters: DiscoveryCounters,
        mappings: dict[int, tuple[int, ...] | None] | None = None,
        names: dict[int, str] | None = None,
        complete: bool = True,
        plan: "PlanReport | None" = None,
    ) -> "DiscoveryResult":
        """Build a result object from the top-k heap contents."""
        mappings = mappings or {}
        names = names or {}
        tables = [
            TableResult(
                table_id=entry.table_id,
                joinability=entry.joinability,
                column_mapping=mappings.get(entry.table_id),
                table_name=names.get(entry.table_id, ""),
            )
            for entry in ranked
        ]
        return cls(
            system=system,
            k=k,
            tables=tables,
            counters=counters,
            complete=complete,
            plan=plan,
        )
