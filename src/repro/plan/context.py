"""The shared mutable state the pipeline stages operate on.

A :class:`PlanContext` is created per run by the
:class:`~repro.plan.executor.Executor` and threaded through every stage's
``run(context) -> StageResult`` call.  It carries the immutable run inputs
(engine, query, ``k``, plan, budget, hooks) and the evolving result state
(top-k heap, column mappings, the request's arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.topk import TopKHeap
from ..metrics import DiscoveryCounters

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..api.request import RequestBudget
    from ..datamodel import QueryTable
    from ..index.batch import RequestArrays
    from ..sketch import SketchOptions
    from .planner import PlanReport, QueryPlan


@dataclass(slots=True)
class StageResult:
    """Uniform outcome of one stage invocation (one per stage and request)."""

    stage: str
    #: Work items the invocation received (stage-specific unit).
    items_in: int = 0
    #: Work items the invocation let through.
    items_out: int = 0
    #: Free-form annotation (e.g. the sketch prune's threshold).  Not
    #: consumed by the built-in executor — it exists for the operator
    #: contract: external stage implementations and debugging hooks report
    #: through it.
    detail: str = ""


@dataclass
class PlanContext:
    """Everything one discovery run's stages share."""

    # ---------------- Immutable run inputs ----------------
    engine: object
    query: "QueryTable"
    k: int
    plan: "QueryPlan"
    budget: "RequestBudget | None" = None
    #: Per-request knobs of the approximate tier (``planner.mode="sketch"``).
    sketch: "SketchOptions | None" = None
    #: The engine's :class:`~repro.sketch.SketchIndex` (sketch mode only).
    sketch_index: object | None = None

    # ---------------- Evolving run state ----------------
    counters: DiscoveryCounters = field(default_factory=DiscoveryCounters)
    topk: TopKHeap = field(default=None)  # type: ignore[assignment]
    mappings: dict[int, tuple[int, ...] | None] = field(default_factory=dict)
    report: "PlanReport" = None  # type: ignore[assignment]
    #: ``superkey_map_Q``: seed value -> (key tuple, aggregated hash) pairs.
    key_map: dict[str, list[tuple[tuple[str, ...], int]]] = field(
        default_factory=dict
    )
    #: The index the request reads, pinned by candidate generation: a live
    #: index's snapshot, else the engine's index itself.  Row verification
    #: reads the rows the fetched blocks' ordinals number off it.
    reader: object | None = None
    #: The request-level arrays, candidate tables included (``None`` until
    #: candidate generation).
    batch: "RequestArrays | None" = None
    #: Fetch universe left by the ``SketchPrune`` stage: ``None`` means
    #: exhaustive (no pruning); a set restricts candidate generation to it.
    allowed_tables: set[int] | None = None

    def __post_init__(self) -> None:
        if self.topk is None:
            self.topk = TopKHeap(self.k)
