"""Shared infrastructure for the experiment harness.

Each experiment module (one per table/figure of the paper) follows the same
recipe: build one or more Table 1 workloads, build the index once per hash
function and hash size, run the systems under test on every query, and
aggregate runtimes / precision.  This module centralises that plumbing:

* :class:`ExperimentSettings` — the scale knobs (number of queries per set,
  corpus scale, seed, hash sizes, k) shared by every experiment; benchmarks
  use the small defaults, users can crank them up.
* :class:`WorkloadContext` — a workload plus lazily built, cached indexes
  (per hash function and hash size) and JOSIE index.
* :func:`run_mate` / :func:`run_system` — run a discovery engine over every
  query of a workload and aggregate the counters.
* :class:`ExperimentResult` — a uniform "headers + rows + notes" result that
  renders to text via :mod:`repro.experiments.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..api import DiscoveryRequest, DiscoverySession
from ..baselines import JosieIndex
from ..config import MateConfig
from ..core import DiscoveryResult
from ..datagen import QueryWorkload, build_workload
from ..datamodel import QueryTable
from ..index import IndexBuilder, InvertedIndex
from ..metrics import DiscoveryCounters, summarize_precision

#: A factory building a discovery engine for a given workload context and
#: hash size; used by run_system to treat MATE and baselines uniformly.
SystemFactory = Callable[["WorkloadContext", int], object]


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and reproducibility knobs shared by all experiments."""

    seed: int = 7
    #: Queries per query set (the paper uses 150; default is laptop scale).
    num_queries: int = 3
    #: Scale factor for the corpus profiles (1.0 = the DESIGN.md defaults).
    corpus_scale: float = 0.5
    #: Number of requested joinable tables.
    k: int = 10
    #: Hash sizes to sweep where the experiment calls for it.
    hash_sizes: tuple[int, ...] = (128, 256, 512)
    #: Corpus-size estimate used for the Eq. 5 one-bit budget.  The default is
    #: the paper's DWTC figure (700M unique values, giving alpha = 6 at 128
    #: bits): XASH's bit budget is a property of the targeted corpus scale,
    #: not of the scaled-down synthetic stand-in.
    expected_unique_values: int = 700_000_000

    def config(self, hash_size: int = 128, **overrides: object) -> MateConfig:
        """Build a :class:`MateConfig` for the given hash size."""
        parameters: dict[str, object] = {
            "hash_size": hash_size,
            "k": self.k,
            "expected_unique_values": self.expected_unique_values,
        }
        parameters.update(overrides)
        return MateConfig(**parameters)  # type: ignore[arg-type]


@dataclass
class WorkloadContext:
    """A workload plus cached indexes for the hash functions under test."""

    workload: QueryWorkload
    settings: ExperimentSettings
    _indexes: dict[tuple[str, int], InvertedIndex] = field(default_factory=dict)
    _josie_index: JosieIndex | None = None
    _avg_columns: float | None = None

    @property
    def name(self) -> str:
        """Name of the underlying query set (e.g. ``"WT_100"``)."""
        return self.workload.name

    @property
    def queries(self) -> list[QueryTable]:
        """The workload's query tables."""
        return self.workload.queries

    def average_columns(self) -> float:
        """Average columns per corpus table (the bloom-filter ``V``, §7.1.2)."""
        if self._avg_columns is None:
            self._avg_columns = self.workload.corpus.average_columns_per_table()
        return self._avg_columns

    def config(self, hash_size: int = 128) -> MateConfig:
        """The configuration used for this workload's indexes and engines.

        Mirrors the paper's setup: the bloom-filter baselines receive the
        corpus' average column count as their ``V`` parameter.
        """
        return self.settings.config(
            hash_size, bloom_values_per_row=self.average_columns()
        )

    def index(self, hash_function: str = "xash", hash_size: int = 128) -> InvertedIndex:
        """Return (building and caching on first use) the requested index."""
        key = (hash_function, hash_size)
        if key not in self._indexes:
            builder = IndexBuilder(
                config=self.config(hash_size), hash_function_name=hash_function
            )
            self._indexes[key] = builder.build(self.workload.corpus)
        return self._indexes[key]

    def session(
        self, hash_function: str = "xash", hash_size: int = 128
    ) -> DiscoverySession:
        """Return a *fresh* discovery session over the cached index.

        A new session (and therefore a cold engine with empty memoised hash
        caches) is built per call, so repeated runs stay comparable cold
        measurements — exactly like constructing a fresh engine by hand.
        Only the index's block is reused (cached per hash layout): a fresh
        :class:`InvertedIndex` serves it, so the memoised fetch blocks and
        their coverage memos start cold too.
        """
        return DiscoverySession(
            self.workload.corpus,
            InvertedIndex(self.index(hash_function, hash_size).block),
            config=self.config(hash_size),
        )

    def josie_index(self) -> JosieIndex:
        """Return (building and caching on first use) the JOSIE set index."""
        if self._josie_index is None:
            self._josie_index = JosieIndex.build(self.workload.corpus)
        return self._josie_index


def build_context(
    workload_name: str, settings: ExperimentSettings, seed_offset: int = 0
) -> WorkloadContext:
    """Build a workload (scaled per the settings) and wrap it in a context."""
    workload = build_workload(
        workload_name,
        seed=settings.seed + seed_offset,
        num_queries=settings.num_queries,
        corpus_scale=settings.corpus_scale,
    )
    return WorkloadContext(workload=workload, settings=settings)


@dataclass
class AggregatedRun:
    """Aggregate of one system over every query of one workload."""

    system: str
    workload: str
    total_runtime: float
    mean_runtime: float
    precision_mean: float
    precision_std: float
    counters: DiscoveryCounters
    results: list[DiscoveryResult] = field(default_factory=list)


def aggregate_results(
    system: str, workload: str, results: Sequence[DiscoveryResult]
) -> AggregatedRun:
    """Aggregate per-query results into a single :class:`AggregatedRun`."""
    total = DiscoveryCounters()
    precisions = []
    for result in results:
        total.merge(result.counters)
        precisions.append(result.precision)
    summary = summarize_precision(precisions)
    runtimes = [result.runtime_seconds for result in results]
    total_runtime = sum(runtimes)
    mean_runtime = total_runtime / len(runtimes) if runtimes else 0.0
    return AggregatedRun(
        system=system,
        workload=workload,
        total_runtime=total_runtime,
        mean_runtime=mean_runtime,
        precision_mean=summary.mean,
        precision_std=summary.std,
        counters=total,
        results=list(results),
    )


def run_mate(
    context: WorkloadContext,
    hash_function: str = "xash",
    hash_size: int = 128,
    k: int | None = None,
    row_filter_mode: str = "superkey",
    label: str | None = None,
) -> AggregatedRun:
    """Run MATE (with the given hash function) over every query of a workload.

    Queries go through the unified discovery API: one
    :class:`~repro.api.request.DiscoveryRequest` per query, dispatched by the
    context's cached :class:`~repro.api.session.DiscoverySession` — the same
    code path the CLI and the serving layer use.
    """
    settings = context.settings
    session = context.session(hash_function, hash_size)
    results = [
        session.discover(
            DiscoveryRequest(
                query=query,
                k=k or settings.k,
                engine="mate",
                hash_function=hash_function,
                row_filter_mode=row_filter_mode,
            )
        ).response
        for query in context.queries
    ]
    system = label or f"mate[{hash_function}/{hash_size}]"
    return aggregate_results(system, context.name, results)


def run_system(
    context: WorkloadContext,
    factory: SystemFactory,
    label: str,
    hash_size: int = 128,
    k: int | None = None,
) -> AggregatedRun:
    """Run an arbitrary discovery engine built by ``factory`` over a workload."""
    engine = factory(context, hash_size)
    results = [
        engine.discover(query, k=k or context.settings.k)  # type: ignore[attr-defined]
        for query in context.queries
    ]
    return aggregate_results(label, context.name, results)


@dataclass
class ExperimentResult:
    """Uniform result shape for every experiment: a titled table of rows."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def to_text(self) -> str:
        """Render the result as an aligned text table (plus notes)."""
        from .reporting import format_table

        text = format_table(self.headers, self.rows, title=self.name)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text

    def row_dicts(self) -> list[dict[str, object]]:
        """Return rows as header-keyed dictionaries."""
        return [dict(zip(self.headers, row)) for row in self.rows]
