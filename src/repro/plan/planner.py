"""Seed selection: build one :class:`QueryPlan` per request.

MATE's single biggest lever is fetching fewer, cheaper posting lists: the
whole run is ordered around *one* initiator (seed) column whose posting
lists seed the candidate tables, and every other key column is pruned via
the XASH super-key prefilter.  The classic engine picks that column with a
corpus-side heuristic (lowest cardinality, Section 6.1); mode ``cost``
instead asks the *index* what each choice fetches: the exact posting count
of the column's probe values, read off the index's offsets with one batched
``posting_lengths`` per key column
(:func:`repro.core.column_selection.probed_postings`, the routine behind the
``best_case`` selector).  The column with the fewest postings wins; the
others are kept on the plan, ranked, for ``--explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..core.column_selection import probed_postings
from ..exceptions import DiscoveryError
from .options import PlannerOptions

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..datamodel import QueryTable

#: Stage names of the discovery pipeline, in execution order.
STAGE_SKETCH_PRUNE = "sketch_prune"
STAGE_CANDIDATE_GENERATION = "candidate_generation"
STAGE_SUPERKEY_PREFILTER = "superkey_prefilter"
STAGE_ROW_VERIFICATION = "row_verification"
STAGE_TOPK_MAINTENANCE = "topk_maintenance"

PIPELINE_STAGES: tuple[str, ...] = (
    STAGE_CANDIDATE_GENERATION,
    STAGE_SUPERKEY_PREFILTER,
    STAGE_ROW_VERIFICATION,
    STAGE_TOPK_MAINTENANCE,
)

#: The pipeline with the approximate candidate tier in front
#: (``planner.mode="sketch"``).
SKETCH_PIPELINE_STAGES: tuple[str, ...] = (
    STAGE_SKETCH_PRUNE,
    *PIPELINE_STAGES,
)


@dataclass(frozen=True)
class SeedCandidate:
    """One key column considered as the run's initiator column.

    The counts are ``None`` when nothing was counted (modes ``selector``
    and ``sketch``, which take the column selector's choice)."""

    column: str
    #: Distinct probe values the initialization step would fetch.
    probe_count: int | None = None
    #: The PL items those values fetch, counted exactly off the index.
    postings: int | None = None

    def as_dict(self) -> dict[str, object]:
        """Return the candidate as a plain dictionary (for ``--explain``)."""
        return {
            "column": self.column,
            "probe_count": self.probe_count,
            "postings": self.postings,
        }


@dataclass
class QueryPlan:
    """The planner's decision for one request: seed column + alternatives."""

    mode: str
    seed: SeedCandidate
    #: Remaining key columns by increasing postings (mode ``cost`` only).
    alternatives: list[SeedCandidate] = field(default_factory=list)
    stages: tuple[str, ...] = PIPELINE_STAGES

    def explain(self) -> dict[str, object]:
        """Return the pre-execution plan as a plain dictionary."""
        return {
            "mode": self.mode,
            "seed_column": self.seed.column,
            "stages": list(self.stages),
            "seed": self.seed.as_dict(),
            "alternatives": [entry.as_dict() for entry in self.alternatives],
        }


@dataclass
class PlanReport:
    """What actually happened: the plan plus its execution trace.

    Attached to :attr:`DiscoveryResult.plan
    <repro.core.results.DiscoveryResult.plan>` by the executor and surfaced
    as ``plan_explain`` on session results and via the CLI ``--explain``
    flag.
    """

    plan: QueryPlan
    #: PL items the run fetched.
    observed_postings: int = 0
    #: Surviving pairs the request's one verification pass checked: every
    #: candidate table's (0 when the pass never ran, or the request was
    #: verified table by table).
    verified_pairs: int = 0
    #: Of those, the pairs no replayed table charged: the tables rule 1
    #: pruned, the suffixes rule 2 cut off, the tables behind a deadline.
    discarded_pairs: int = 0

    def as_dict(self) -> dict[str, object]:
        """The JSON-facing plan explanation."""
        document = self.plan.explain()
        document.update(
            {
                "observed_postings": self.observed_postings,
                "verified_pairs": self.verified_pairs,
                "discarded_pairs": self.discarded_pairs,
            }
        )
        return document


class Planner:
    """Builds a :class:`QueryPlan` for one query against one engine.

    ``engine`` is the :class:`~repro.core.discovery.MateDiscovery` (or
    subclass) whose corpus/index/selector the plan is for; the planner only
    reads from it.
    """

    def __init__(self, engine, options: PlannerOptions | None = None):
        self.engine = engine
        self.options = options or PlannerOptions()

    def plan(self, query: "QueryTable") -> QueryPlan:
        """Pick the seed column per the configured mode and build the plan."""
        mode = self.options.mode
        if mode == "cost":
            ranked = sorted(
                (
                    SeedCandidate(column, probe_count, postings)
                    for column, (probe_count, postings) in probed_postings(
                        query, self.engine.index
                    ).items()
                ),
                key=lambda candidate: (candidate.postings, candidate.column),
            )
            return QueryPlan(mode=mode, seed=ranked[0], alternatives=ranked[1:])
        # The engine's column selector decides, and nothing is counted: this
        # is the default hot path (every batch request).  ``sketch`` mode
        # seeds the same way (the prune happens ahead of candidate
        # generation, not at seed selection), so an exhaustive sketch run is
        # byte-identical to ``selector``.
        chosen = self.engine.column_selector(query, self.engine.index)
        if chosen not in query.key_columns:
            raise DiscoveryError(
                f"initial column {chosen!r} is not a key column of the query"
            )
        return QueryPlan(
            mode=mode,
            seed=SeedCandidate(chosen),
            stages=SKETCH_PIPELINE_STAGES if mode == "sketch" else PIPELINE_STAGES,
        )
