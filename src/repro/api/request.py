"""The typed request contract of the unified discovery API.

:class:`DiscoveryRequest` is the one immutable description of "run a top-k
discovery" that every front door of the library accepts: the
:class:`~repro.api.session.DiscoverySession` facade, the CLI ``discover`` /
``serve-batch`` commands, and the experiment harness.  It names the engine
(resolved through the :mod:`~repro.api.registry`), carries every knob the
engines expose (hash function, column selector, row-filter mode, table
filters), and — new over the legacy constructors — two *per-request limits*:

* ``max_pl_fetches`` — a budget on posting-list fetches.  Each probe value of
  the initialization step costs one fetch; once the budget is spent, the run
  stops fetching, answers from what it has, and flags the result via
  ``counters.budget_exhausted`` and ``complete=False``.
* ``deadline_seconds`` — a wall-clock deadline checked inside the discovery
  loop.  An expired deadline returns the partial top-k collected so far,
  flagged via ``counters.deadline_expired`` and ``complete=False``.

:class:`RequestBudget` is the runtime ledger the engine decrements; it is
created per run (requests themselves stay frozen and reusable).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from ..datamodel import QueryTable
from ..exceptions import DiscoveryError
from ..plan.options import DEFAULT_PLANNER_OPTIONS, PlannerOptions
from ..sketch.options import DEFAULT_SKETCH_OPTIONS, SketchOptions

#: The default engine of every request (Algorithm 1 over the session index).
DEFAULT_ENGINE = "mate"


@dataclass(frozen=True)
class DiscoveryRequest:
    """One immutable discovery request.

    Parameters
    ----------
    query:
        The query table with its composite key.
    k:
        Number of joinable tables to return; ``None`` uses the session's
        :attr:`~repro.config.MateConfig.k`.
    engine:
        Registered engine name (see :func:`repro.api.available_engines`).
    hash_function:
        Hash function the engine should assume; ``None`` follows the index.
    column_selector / row_filter_mode / use_table_filters:
        The Algorithm 1 knobs, with the same defaults as
        :class:`~repro.core.discovery.MateDiscovery`.
    deadline_seconds:
        Optional wall-clock limit for the run (must be positive).
    max_pl_fetches:
        Optional posting-list fetch budget (must be non-negative; ``0`` means
        "answer without touching the index").
    planner:
        The :class:`~repro.plan.options.PlannerOptions` controlling seed
        selection: the default keeps the classic column selector
        (byte-identical output), ``mode="cost"`` seeds from the key column
        whose probe values hold the fewest postings, counted exactly off
        the index.  Non-default options are refused on engines that do not
        run the planner pipeline.
    sketch:
        The :class:`~repro.sketch.SketchOptions` of the approximate
        candidate tier (planner mode ``"sketch"``): the containment
        threshold / candidate cap of the MinHash-LSH prune.  Non-default
        options require ``planner.mode="sketch"`` — they would otherwise be
        silently ignored — and are refused on engines without sketch
        support.
    request_id:
        Optional caller-supplied identifier used for attribution in logs,
        errors, and batch statistics.
    """

    query: QueryTable
    k: int | None = None
    engine: str = DEFAULT_ENGINE
    hash_function: str | None = None
    column_selector: str = "cardinality"
    row_filter_mode: str = "superkey"
    use_table_filters: bool = True
    deadline_seconds: float | None = None
    max_pl_fetches: int | None = None
    planner: PlannerOptions = field(default_factory=PlannerOptions)
    sketch: SketchOptions = field(default_factory=SketchOptions)
    request_id: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.query, QueryTable):
            raise DiscoveryError(
                f"query must be a QueryTable, got {type(self.query).__name__}",
                request=self,
            )
        if not self.engine or not isinstance(self.engine, str):
            raise DiscoveryError(
                f"engine must be a non-empty name, got {self.engine!r}",
                request=self,
            )
        if self.k is not None and self.k <= 0:
            raise DiscoveryError(
                f"k must be positive, got {self.k}", request=self
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise DiscoveryError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}",
                request=self,
            )
        if self.max_pl_fetches is not None and self.max_pl_fetches < 0:
            raise DiscoveryError(
                f"max_pl_fetches must be non-negative, got {self.max_pl_fetches}",
                request=self,
            )
        if not isinstance(self.planner, PlannerOptions):
            raise DiscoveryError(
                "planner must be a repro.plan.PlannerOptions, got "
                f"{type(self.planner).__name__}",
                request=self,
            )
        if not isinstance(self.sketch, SketchOptions):
            raise DiscoveryError(
                "sketch must be a repro.sketch.SketchOptions, got "
                f"{type(self.sketch).__name__}",
                request=self,
            )
        if self.sketch != DEFAULT_SKETCH_OPTIONS and self.planner.mode != "sketch":
            raise DiscoveryError(
                "sketch options require planner mode 'sketch' (got mode "
                f"{self.planner.mode!r}); they would otherwise be ignored",
                request=self,
            )

    # ------------------------------------------------------------------
    # Identity / dispatch helpers
    # ------------------------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable identity used in errors and batch statistics."""
        if self.request_id:
            return self.request_id
        return f"{self.query.table.name}[{','.join(self.query.key_columns)}]"

    @property
    def limited(self) -> bool:
        """Whether the request carries any per-request limit."""
        return self.deadline_seconds is not None or self.max_pl_fetches is not None

    @property
    def planner_requested(self) -> bool:
        """Whether the request carries non-default planner options.

        Only such requests need an engine that runs the planner pipeline;
        default options mean "behave exactly like the classic engine" and
        are accepted everywhere.
        """
        return self.planner != DEFAULT_PLANNER_OPTIONS

    @property
    def sketch_requested(self) -> bool:
        """Whether the request engages the approximate candidate tier.

        True for planner mode ``"sketch"`` (even with exhaustive default
        sketch options — the stage still runs and reports) and for any
        non-default :attr:`sketch` options.
        """
        return (
            self.planner.mode == "sketch" or self.sketch != DEFAULT_SKETCH_OPTIONS
        )

    def engine_signature(self) -> tuple:
        """The engine-configuration identity of this request.

        Requests with equal signatures are served by the same (cached) engine
        instance inside a session; the per-run inputs (query, ``k``, limits,
        planner and sketch options) are deliberately excluded: the sketch
        threshold travels to the executor per run, so one cached engine
        (and its one sketch store) serves every threshold correctly.
        """
        return (
            self.engine,
            self.hash_function,
            self.column_selector,
            self.row_filter_mode,
            self.use_table_filters,
        )

    def make_budget(
        self, clock: Callable[[], float] = time.monotonic
    ) -> "RequestBudget | None":
        """Return a fresh :class:`RequestBudget`, or ``None`` when unlimited."""
        if not self.limited:
            return None
        return RequestBudget(
            deadline_seconds=self.deadline_seconds,
            max_pl_fetches=self.max_pl_fetches,
            clock=clock,
        )


class RequestBudget:
    """The mutable per-run ledger enforcing a request's limits.

    The engine asks two questions while it runs: :meth:`take_pl_fetches`
    before the initialization fetch (how many of the wanted posting lists the
    budget still covers) and :meth:`deadline_expired` at each candidate-table
    step.  Both latch their outcome so the caller can translate the final
    state into result flags (``budget_exhausted`` / ``deadline_expired``).

    ``clock`` is injectable for deterministic tests.
    """

    def __init__(
        self,
        deadline_seconds: float | None = None,
        max_pl_fetches: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if deadline_seconds is not None and deadline_seconds <= 0:
            raise DiscoveryError(
                f"deadline_seconds must be positive, got {deadline_seconds}"
            )
        if max_pl_fetches is not None and max_pl_fetches < 0:
            raise DiscoveryError(
                f"max_pl_fetches must be non-negative, got {max_pl_fetches}"
            )
        self._clock = clock
        self._deadline = (
            None if deadline_seconds is None else clock() + deadline_seconds
        )
        self.remaining_pl_fetches = max_pl_fetches
        #: Latched: the fetch budget could not cover a requested fetch.
        self.exhausted = False
        #: Latched: the deadline was observed to have passed.
        self.expired = False

    @property
    def complete(self) -> bool:
        """Whether no limit has curtailed the run so far."""
        return not (self.exhausted or self.expired)

    def deadline_expired(self) -> bool:
        """Check (and latch) whether the wall-clock deadline has passed."""
        if self._deadline is not None and self._clock() >= self._deadline:
            self.expired = True
        return self.expired

    def remaining_seconds(self) -> float | None:
        """Wall-clock allowance left, or ``None`` when there is no deadline.

        Clamped at ``0.0`` once the deadline has passed (without latching
        :attr:`expired` — this is a read, not a check).  The process-pool
        scatter path uses it to forward the *remaining* allowance to shard
        workers, whose ledgers start their own clocks on arrival.
        """
        if self._deadline is None:
            return None
        return max(0.0, self._deadline - self._clock())

    def cancel(self) -> None:
        """Expire the budget immediately (thread-safe, latched).

        The engine observes this at its next deadline check and stops (a
        pool worker answers a probe whose deadline passed before it was
        scattered this way).
        """
        self.expired = True

    def take_pl_fetches(self, wanted: int) -> int:
        """Consume up to ``wanted`` fetches; returns how many were granted.

        Granting fewer than ``wanted`` latches :attr:`exhausted`.
        """
        if wanted < 0:
            raise DiscoveryError(f"wanted must be non-negative, got {wanted}")
        if self.remaining_pl_fetches is None:
            return wanted
        granted = min(wanted, self.remaining_pl_fetches)
        self.remaining_pl_fetches -= granted
        if granted < wanted:
            self.exhausted = True
        return granted
