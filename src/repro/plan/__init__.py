"""Query planning: explicit pipeline stages and seed selection.

The :mod:`repro.plan` package decomposes Algorithm 1 into four composable
operators with a uniform ``run(PlanContext) -> StageResult`` contract
(:mod:`~repro.plan.stages`), a :class:`Planner` that picks the initiator
column (the column selector's choice, or the column whose probe values hold
the fewest postings, counted exactly off the index), and an
:class:`Executor` that runs the plan under budget/deadline enforcement.  :class:`~repro.core.discovery.MateDiscovery` (and through it
the sharded, SCR, and live engines) is a thin shell over this pipeline.
"""

from .context import PlanContext, StageResult
from .executor import Executor
from .options import DEFAULT_PLANNER_OPTIONS, PLANNER_MODES, PlannerOptions
from .planner import (
    PIPELINE_STAGES,
    SKETCH_PIPELINE_STAGES,
    STAGE_SKETCH_PRUNE,
    PlanReport,
    Planner,
    QueryPlan,
    SeedCandidate,
)
from .stages import (
    CandidateGeneration,
    PlanStage,
    RowVerification,
    SketchPrune,
    SuperKeyPrefilter,
    TopKMaintenance,
)

__all__ = [
    "CandidateGeneration",
    "DEFAULT_PLANNER_OPTIONS",
    "Executor",
    "PIPELINE_STAGES",
    "PLANNER_MODES",
    "PlanContext",
    "PlanReport",
    "PlanStage",
    "Planner",
    "PlannerOptions",
    "QueryPlan",
    "RowVerification",
    "SKETCH_PIPELINE_STAGES",
    "STAGE_SKETCH_PRUNE",
    "SeedCandidate",
    "SketchPrune",
    "StageResult",
    "SuperKeyPrefilter",
    "TopKMaintenance",
]
