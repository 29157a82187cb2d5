"""The plan executor: runs the stage pipeline with budget enforcement.

The :class:`Executor` runs each stage once: the sketch prune (sketch mode
only), candidate generation, then — unless there is no candidate or the
deadline has already passed, the check Algorithm 1 makes in front of its
first candidate table — the prefilter, the verification and the top-k
replay, which walks the candidate tables (lines 7-22) on the arrays the
first two left.  It then sets the completeness flags and assembles the
result.  Running the pipeline is byte-identical to the pre-refactor
monolithic ``MateDiscovery.discover`` loop run on the plan's seed column;
the planner's mode only changes *which* posting lists get fetched — the
exact verification stages keep every reported score correct regardless of
the seed column.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..core.results import DiscoveryResult
from ..metrics import DiscoveryCounters
from ..telemetry import trace as _trace
from .context import PlanContext
from .planner import PlanReport, QueryPlan, STAGE_SKETCH_PRUNE
from .stages import (
    CandidateGeneration,
    RowVerification,
    SketchPrune,
    SuperKeyPrefilter,
    TopKMaintenance,
)

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..api.request import RequestBudget
    from ..datamodel import QueryTable
    from ..sketch import SketchIndex, SketchOptions


class Executor:
    """Runs a :class:`~repro.plan.planner.QueryPlan` to a result."""

    def __init__(self, engine):
        self.engine = engine
        self.sketch_prune = SketchPrune()
        self.candidate_generation = CandidateGeneration()
        self.superkey_prefilter = SuperKeyPrefilter()
        self.row_verification = RowVerification()
        self.topk_maintenance = TopKMaintenance()

    def execute(
        self,
        plan: QueryPlan,
        query: "QueryTable",
        k: int,
        *,
        budget: "RequestBudget | None" = None,
        sketch: "SketchOptions | None" = None,
        sketch_index: "SketchIndex | None" = None,
    ) -> DiscoveryResult:
        """Run the pipeline and assemble the :class:`DiscoveryResult`."""
        engine = self.engine
        counters = DiscoveryCounters()
        started = time.perf_counter()
        context = PlanContext(
            engine=engine,
            query=query,
            k=k,
            plan=plan,
            budget=budget,
            sketch=sketch,
            sketch_index=sketch_index,
            counters=counters,
            report=PlanReport(plan=plan),
        )

        # ---------------- Approximate tier (sketch mode only) ----------------
        if STAGE_SKETCH_PRUNE in plan.stages:
            self.sketch_prune.run(context)

        # ---------------- Initialization (lines 3-6) ----------------
        self.candidate_generation.run(context)

        # ---------------- Candidate-table loop (lines 7-22) ----------------
        # The deadline check in front of the first candidate table gates
        # both array passes; the replay checks in front of every later one.
        if len(context.batch.candidate_ids) and (
            budget is None or not budget.deadline_expired()
        ):
            self.superkey_prefilter.run(context)
            self.row_verification.run(context)
            self.topk_maintenance.run(context)

        complete = True
        if budget is not None:
            counters.budget_exhausted = int(budget.exhausted)
            counters.deadline_expired = int(budget.expired)
            complete = budget.complete
        counters.runtime_seconds = time.perf_counter() - started
        # One aggregate span per executed stage, synthesized from the
        # StageStats the stages already collect — the tracer adds no work to
        # them, and when no tracer is enabled anywhere this whole block is a
        # single global-int check.
        if _trace._ACTIVE:
            emit_plan_spans(context.plan.seed.column, counters, k)
        names = {
            table_id: engine.corpus.get_table(table_id).name
            for table_id, _ in context.topk.result_tuples()
        }
        return DiscoveryResult.from_ranked(
            system=engine.system_name,
            k=k,
            ranked=context.topk.results(),
            counters=counters,
            mappings=context.mappings,
            names=names,
            complete=complete,
            plan=context.report,
        )


def emit_plan_spans(seed_column: str, counters: DiscoveryCounters, k: int) -> None:
    """Export a ``plan.execute`` span plus one child span per stage.

    The stage spans absorb each stage's :class:`StageStats` — calls,
    accumulated seconds, items in/out — as span attributes, so the
    per-stage timing that used to live only in the counters is part of
    the trace tree.  Every engine that reports stages emits through here,
    so traces have one shape.
    """
    entry = _trace.current_entry()
    if entry is None:
        return
    tracer, parent = entry
    exec_span = tracer.emit(
        "plan.execute",
        parent,
        duration=counters.runtime_seconds,
        attributes={
            "seed_column": seed_column,
            "k": k,
            "pl_items_fetched": counters.pl_items_fetched,
            "tables_evaluated": counters.tables_evaluated,
        },
    )
    for name, stats in counters.stages.items():
        tracer.emit(
            f"stage.{name}",
            exec_span,
            duration=stats.seconds,
            attributes={
                "calls": stats.calls,
                "items_in": stats.items_in,
                "items_out": stats.items_out,
            },
            start=exec_span.start,
        )
