"""Cost-based seed selection: build one :class:`QueryPlan` per request.

MATE's single biggest lever is fetching fewer, cheaper posting lists: the
whole run is ordered around *one* initiator (seed) column whose posting
lists seed the candidate tables, and every other key column is pruned via
the XASH super-key prefilter.  The classic engine picks that column with a
corpus-side heuristic (lowest cardinality); the :class:`Planner` instead
asks the *index* what each choice would cost:

    cost(column) = fetch_weight * |probe values|
                 + verification_weight * estimated posting volume

where the posting volume comes from a bounded, deterministic sample of
posting-list lengths (:func:`repro.index.statistics.estimate_posting_volume`).
The cheapest column wins; the runners-up are kept on the plan as re-planning
alternatives for the adaptive executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..exceptions import DiscoveryError
from ..index.statistics import PostingVolumeEstimate, estimate_posting_volume
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
    """One key column considered as the run's initiator column."""

    column: str
    #: Distinct probe values the initialization step would fetch.
    probe_count: int
    #: The sampled posting-volume estimate behind :attr:`cost`.
    estimate: PostingVolumeEstimate
    #: Modelled cost (fetches + predicted verification volume, weighted).
    cost: float

    def as_dict(self) -> dict[str, object]:
        """Return the candidate as a plain dictionary (for ``--explain``)."""
        return {
            "column": self.column,
            "probe_count": self.probe_count,
            "estimated_postings": self.estimate.estimated_postings,
            "sampled_values": self.estimate.sampled,
            "estimate_exact": self.estimate.exact,
            "cost": self.cost,
        }


@dataclass(frozen=True)
class ReplanEvent:
    """One adaptive seed switch, recorded on the plan report."""

    from_column: str
    to_column: str
    #: PL items observed from the abandoned column before the switch.
    observed_postings: int
    #: The (prorated) estimate those observations blew past.
    estimated_postings: float
    #: Probe values already fetched (and charged) for the abandoned column.
    values_fetched: int

    def as_dict(self) -> dict[str, object]:
        return {
            "from_column": self.from_column,
            "to_column": self.to_column,
            "observed_postings": self.observed_postings,
            "estimated_postings": self.estimated_postings,
            "values_fetched": self.values_fetched,
        }


@dataclass
class QueryPlan:
    """The planner's decision for one request: seed column + alternatives."""

    mode: str
    seed: SeedCandidate
    #: Remaining key columns in increasing modelled cost — the order the
    #: adaptive executor tries them in when re-planning.
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
    #: The seed column the run finally used (differs from the planned seed
    #: after an adaptive re-plan).
    seed_column: str = ""
    #: PL items actually fetched, including fetches discarded by re-plans.
    observed_postings: int = 0
    #: PL items fetched for abandoned seed columns and thrown away.
    discarded_postings: int = 0
    replans: list[ReplanEvent] = field(default_factory=list)
    #: Which execution path served the request: ``"batch"`` (request-level
    #: arrays, :mod:`repro.index.batch`) or ``"table"`` (one table at a
    #: time); empty until candidate generation has decided.
    execution_path: str = ""
    #: Why the table-at-a-time path ran (``"kernel off"``, ``"row filter
    #: none"``, ``"unpacked block for value ..."``); empty on the batch path.
    table_path_reason: str = ""

    def as_dict(self) -> dict[str, object]:
        """The JSON-facing plan explanation."""
        document = self.plan.explain()
        document.update(
            {
                "executed_seed_column": self.seed_column,
                "observed_postings": self.observed_postings,
                "discarded_postings": self.discarded_postings,
                "replans": [event.as_dict() for event in self.replans],
                "execution_path": self.execution_path,
                "table_path_reason": self.table_path_reason,
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

    # ------------------------------------------------------------------
    # Probe-value enumeration (shared with the execution stages)
    # ------------------------------------------------------------------
    def probe_values_for(
        self,
        query: "QueryTable",
        column: str,
        key_tuples: list[tuple[str, ...]] | None = None,
    ) -> list[str]:
        """The deduplicated probe values ``column`` would fetch, in order.

        Exactly the keys of the ``superkey_map_Q`` dictionary the
        candidate-generation stage builds for that column, so estimates and
        execution can never disagree on what gets probed.  ``key_tuples``
        lets a caller reuse one ``_complete_key_tuples`` enumeration (an
        O(rows log rows) sort) across all key columns of a plan.
        """
        position = query.key_columns.index(column)
        if key_tuples is None:
            key_tuples = self.engine._complete_key_tuples(query)
        return list(
            dict.fromkeys(key_tuple[position] for key_tuple in key_tuples)
        )

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def estimate_seed(
        self,
        query: "QueryTable",
        column: str,
        key_tuples: list[tuple[str, ...]] | None = None,
    ) -> SeedCandidate:
        """Model the cost of seeding the run with ``column``."""
        values = self.probe_values_for(query, column, key_tuples)
        estimate = estimate_posting_volume(
            self.engine.index, values, sample_size=self.options.sample_size
        )
        cost = (
            self.options.fetch_weight * len(values)
            + self.options.verification_weight * estimate.estimated_postings
        )
        return SeedCandidate(
            column=column, probe_count=len(values), estimate=estimate, cost=cost
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, query: "QueryTable") -> QueryPlan:
        """Pick the seed column per the configured mode and build the plan."""
        if self.options.cost_based:
            key_tuples = self.engine._complete_key_tuples(query)
            ranked = sorted(
                (
                    self.estimate_seed(query, column, key_tuples)
                    for column in query.key_columns
                ),
                key=lambda candidate: (candidate.cost, candidate.column),
            )
            return QueryPlan(
                mode=self.options.mode, seed=ranked[0], alternatives=ranked[1:]
            )
        # Legacy mode: the engine's column selector decides.  No cost
        # estimate is sampled — this is the default hot path (every batch
        # request), and the estimate would only ever feed explain output;
        # the zeroed estimate is marked ``exact=False`` there.  ``sketch``
        # mode seeds the same way (the prune happens ahead of candidate
        # generation, not at seed selection), so an exhaustive sketch run
        # is byte-identical to ``selector``.
        chosen = self.engine.column_selector(query, self.engine.index)
        if chosen not in query.key_columns:
            raise DiscoveryError(
                f"initial column {chosen!r} is not a key column of the query"
            )
        unsampled = PostingVolumeEstimate(
            values=0, sampled=0, estimated_postings=0.0, exact=False
        )
        return QueryPlan(
            mode=self.options.mode,
            seed=SeedCandidate(
                column=chosen, probe_count=0, estimate=unsampled, cost=0.0
            ),
            stages=(
                SKETCH_PIPELINE_STAGES
                if self.options.mode == "sketch"
                else PIPELINE_STAGES
            ),
        )
