"""The shared mutable state the pipeline stages operate on.

A :class:`PlanContext` is created per run by the
:class:`~repro.plan.executor.Executor` and threaded through every stage's
``run(context) -> StageResult`` call.  It carries the immutable run inputs
(engine, query, ``k``, plan, budget, hooks), the evolving result state
(top-k heap, column mappings, candidate list), and the per-table scratch
slots the per-table stages hand to each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from ..core.topk import TopKHeap
from ..metrics import DiscoveryCounters

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..api.request import RequestBudget
    from ..datamodel import QueryTable
    from ..index.batch import RequestArrays, SurvivingPairs
    from ..index.columnar import TableBlock
    from ..sketch import SketchOptions
    from .options import PlannerOptions
    from .planner import PlanReport, QueryPlan


@dataclass(slots=True)
class StageResult:
    """Uniform outcome of one stage invocation.

    A plain (slotted) dataclass: one is built per stage invocation — three
    per candidate table on the hot path — so construction cost matters.
    """

    stage: str
    #: Work items the invocation received (stage-specific unit).
    items_in: int = 0
    #: Work items the invocation let through.
    items_out: int = 0
    #: Free-form annotation (e.g. ``"abandoned"`` for a rule-2 exit,
    #: ``"replanned"`` after an adaptive seed switch).  Not consumed by the
    #: built-in executor — it exists for the operator contract: external
    #: stage implementations and debugging hooks report through it.
    detail: str = ""


@dataclass
class PlanContext:
    """Everything one discovery run's stages share."""

    # ---------------- Immutable run inputs ----------------
    engine: object
    query: "QueryTable"
    k: int
    plan: "QueryPlan"
    options: "PlannerOptions"
    budget: "RequestBudget | None" = None
    on_snapshot: Callable[[list[tuple[int, int]]], None] | None = None
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
    #: Candidate tables sorted by decreasing PL-item count (line 5): the
    #: table's :class:`~repro.index.columnar.TableBlock`, or on the batch
    #: path its span (a ``range`` of positions) of :attr:`batch`.
    candidates: list[tuple[int, "TableBlock | range"]] = field(
        default_factory=list
    )
    #: The request-level arrays (``None``: the table-at-a-time path runs).
    batch: "RequestArrays | None" = None
    #: Fetch universe left by the ``SketchPrune`` stage: ``None`` means
    #: exhaustive (no pruning); a set restricts candidate generation to it.
    allowed_tables: set[int] | None = None

    # ---------------- Per-table scratch (stage hand-off) ----------------
    current_table_id: int = -1
    current_block: "TableBlock | range | None" = None
    surviving: "list[tuple[int, tuple[str, ...]]] | SurvivingPairs" = field(
        default_factory=list
    )
    joinability: int = 0
    mapping: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.topk is None:
            self.topk = TopKHeap(self.k)

    def set_current(self, table_id: int, block: "TableBlock | range") -> None:
        """Point the per-table stages at the next candidate table."""
        self.current_table_id = table_id
        self.current_block = block
        self.surviving = []
        self.joinability = 0
        self.mapping = None
