"""Instrumentation counters for the discovery phase.

The paper's evaluation reasons about the number of false-positive rows, the
number of value comparisons, the number of pruned tables, and the achieved
precision — not only about wall-clock time.  Every discovery run (MATE or any
baseline) therefore carries a :class:`DiscoveryCounters` object that the
filters and the verification step update as they go.  The experiment harness
reads these counters to produce Table 3, Figure 5, Figure 6(b) and the
initial-column study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .timing import StageStats


@dataclass
class CacheCounters:
    """Hit/miss accounting of a posting-list cache, which no index has
    any more: an index memoises its fetch blocks itself, so
    :attr:`DiscoverySession.cache_counters
    <repro.api.session.DiscoverySession.cache_counters>` is always zero.

    Kept only because ``bench_e2e/discover.py`` still reads those counters;
    it goes with them at the next change to the benchmark (ROADMAP item 1).
    """

    #: Probe values answered from the cache.
    hits: int = 0
    #: Probe values that had to be fetched from the underlying index.
    misses: int = 0
    #: Cached posting lists dropped to respect the capacity bound.
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of cache lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "CacheCounters":
        """Return an independent copy of the current counts."""
        return CacheCounters(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

    def delta_since(self, earlier: "CacheCounters") -> "CacheCounters":
        """Return the counts accumulated since an earlier :meth:`snapshot`."""
        return CacheCounters(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )


@dataclass
class DiscoveryCounters:
    """Mutable counters collected during one discovery run."""

    #: Number of PL items fetched from the index in the initialization step.
    pl_items_fetched: int = 0
    #: Number of candidate tables produced by the initial fetch.
    candidate_tables: int = 0
    #: Tables skipped by table-filtering rule 1 (and everything after it).
    tables_pruned_by_rule1: int = 0
    #: Tables skipped mid-way by table-filtering rule 2.
    tables_pruned_by_rule2: int = 0
    #: Tables whose joinability was fully evaluated.
    tables_evaluated: int = 0
    #: PL items (candidate rows) inspected by the row filter.
    rows_checked: int = 0
    #: Super-key subsumption checks performed.
    superkey_checks: int = 0
    #: Row-filter checks resolved by the length-segment short circuit.
    short_circuit_hits: int = 0
    #: Candidate rows that survived the row filter (TP + FP).
    rows_passed_filter: int = 0
    #: Candidate rows verified to actually contain the composite key (TP).
    true_positive_rows: int = 0
    #: Candidate rows that survived the filter but failed verification (FP).
    false_positive_rows: int = 0
    #: Individual cell-value comparisons performed during verification.
    value_comparisons: int = 0
    #: Runs (1 for a single run) whose ``max_pl_fetches`` budget ran out and
    #: truncated the initialization fetch (see :mod:`repro.api.request`).
    budget_exhausted: int = 0
    #: Runs (1 for a single run) stopped early by a ``deadline_seconds``.
    deadline_expired: int = 0
    #: Wall-clock duration of the run in seconds (set by the caller).
    runtime_seconds: float = 0.0
    #: Extra, system-specific counters (e.g. per-column PL counts).
    extra: dict[str, float] = field(default_factory=dict)
    #: Per-stage wall-clock and volume accounting, keyed by stage name.
    #: Populated by the planner/executor pipeline (:mod:`repro.plan`);
    #: engines outside that pipeline leave it empty.
    stages: dict[str, "StageStats"] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def precision(self) -> float:
        """Row-filter precision TP / (TP + FP) as defined in Section 7.4.

        Returns 1.0 when no row passed the filter (nothing to be wrong about),
        matching how the paper treats empty candidate sets.
        """
        passed = self.true_positive_rows + self.false_positive_rows
        if passed == 0:
            return 1.0
        return self.true_positive_rows / passed

    @property
    def false_positive_rate(self) -> float:
        """Fraction of filtered rows that were false positives."""
        return 1.0 - self.precision

    # ------------------------------------------------------------------
    # Combination helpers (used when aggregating over query sets)
    # ------------------------------------------------------------------
    def merge(self, other: "DiscoveryCounters") -> None:
        """Accumulate another run's counters into this one (in place)."""
        self.pl_items_fetched += other.pl_items_fetched
        self.candidate_tables += other.candidate_tables
        self.tables_pruned_by_rule1 += other.tables_pruned_by_rule1
        self.tables_pruned_by_rule2 += other.tables_pruned_by_rule2
        self.tables_evaluated += other.tables_evaluated
        self.rows_checked += other.rows_checked
        self.superkey_checks += other.superkey_checks
        self.short_circuit_hits += other.short_circuit_hits
        self.rows_passed_filter += other.rows_passed_filter
        self.true_positive_rows += other.true_positive_rows
        self.false_positive_rows += other.false_positive_rows
        self.value_comparisons += other.value_comparisons
        self.budget_exhausted += other.budget_exhausted
        self.deadline_expired += other.deadline_expired
        self.runtime_seconds += other.runtime_seconds
        for key, value in other.extra.items():
            self.extra[key] = self.extra.get(key, 0.0) + value
        for name, stats in other.stages.items():
            mine = self.stages.get(name)
            if mine is None:
                self.stages[name] = StageStats(
                    calls=stats.calls,
                    seconds=stats.seconds,
                    items_in=stats.items_in,
                    items_out=stats.items_out,
                )
            else:
                mine.merge(stats)

    def stage_stats(self, name: str) -> "StageStats":
        """Return (creating on first use) the stats bucket for one stage."""
        stats = self.stages.get(name)
        if stats is None:
            stats = self.stages[name] = StageStats()
        return stats

    def stages_dict(self) -> dict[str, dict[str, float]]:
        """Return the per-stage stats as nested plain dictionaries."""
        return {name: stats.as_dict() for name, stats in self.stages.items()}

    def as_dict(self) -> dict[str, float]:
        """Return all counters (plus derived metrics) as a dictionary."""
        result = {
            "pl_items_fetched": self.pl_items_fetched,
            "candidate_tables": self.candidate_tables,
            "tables_pruned_by_rule1": self.tables_pruned_by_rule1,
            "tables_pruned_by_rule2": self.tables_pruned_by_rule2,
            "tables_evaluated": self.tables_evaluated,
            "rows_checked": self.rows_checked,
            "superkey_checks": self.superkey_checks,
            "short_circuit_hits": self.short_circuit_hits,
            "rows_passed_filter": self.rows_passed_filter,
            "true_positive_rows": self.true_positive_rows,
            "false_positive_rows": self.false_positive_rows,
            "value_comparisons": self.value_comparisons,
            "budget_exhausted": self.budget_exhausted,
            "deadline_expired": self.deadline_expired,
            "runtime_seconds": self.runtime_seconds,
            "precision": self.precision,
            "false_positive_rate": self.false_positive_rate,
        }
        result.update(self.extra)
        return result
