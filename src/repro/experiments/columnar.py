"""Packed posting-layout study (extension).

Times the packed struct-of-arrays layout of :mod:`repro.index.columnar` on
the discovery hot path: the corpus is indexed, the initialization-step fetch
(Algorithm 1 line 4, via :meth:`repro.index.InvertedIndex.fetch_batch`) is timed
over repeated passes, and the full engine runs every query, with the
prefilter stage's share of it reported.  To exercise the regime the
vectorized prefilter (:mod:`repro.index.kernels`) is built for — long
per-table posting runs, as produced by popular values in web-scale corpora —
the corpus is augmented with a handful of *deep-posting* tables whose rows
draw from the queries' probe values.
"""

from __future__ import annotations

import random
import time

from ..core import MateDiscovery
from ..datamodel import Table
from ..index import build_index
from .runner import ExperimentResult, ExperimentSettings, build_context

#: Workload the study runs on by default.
DEFAULT_COLUMNAR_WORKLOAD = "WT_100"

#: Deep-posting augmentation: tables whose rows repeat query probe values,
#: giving per-table posting runs of a few hundred rows (the regime where the
#: paper's corpora live and where vectorized filtering pays off).
DEEP_POSTING_TABLES = 24
DEEP_POSTING_ROWS = 1000


def _add_deep_posting_tables(corpus, queries, seed: int) -> None:
    """Plant tables with long per-table posting runs of the query values."""
    pool = sorted(
        {
            value
            for query in queries
            for key_tuple in query.key_tuples()
            for value in key_tuple
        }
    )
    if not pool:
        return
    rng = random.Random(seed * 7919 + 13)
    for i in range(DEEP_POSTING_TABLES):
        # A few values per table, so each (table, value) posting run is
        # hundreds of rows long — the shape popular values produce.
        subset = rng.sample(pool, min(4, len(pool)))
        rows = [
            [rng.choice(subset), rng.choice(subset), f"deep_{i}_{r}"]
            for r in range(DEEP_POSTING_ROWS)
        ]
        corpus.add_table(
            Table(
                corpus.next_table_id(),
                f"deep_posting_{i}",
                ["k1", "k2", "payload"],
                rows,
            )
        )


def _timed_discovery(engine, queries):
    """Run every query; total wall clock and prefilter stage seconds."""
    prefilter_seconds = 0.0
    started = time.perf_counter()
    results = [engine.discover(query) for query in queries]
    discover_seconds = time.perf_counter() - started
    for result in results:
        stage = result.counters.stages.get("superkey_prefilter")
        if stage is not None:
            prefilter_seconds += stage.seconds
    return discover_seconds, prefilter_seconds


def run_columnar(
    settings: ExperimentSettings,
    workload_name: str = DEFAULT_COLUMNAR_WORKLOAD,
    fetch_repeats: int = 10,
) -> ExperimentResult:
    """Time the packed posting layout and its prefilter on one workload.

    The ``columnar`` row: index build time, total time of ``fetch_repeats``
    repeated initialization-step fetches over every query's probe values
    (the serving pattern — hot values recur, so warm fetches dominate), total
    discovery time across all queries and the prefilter stage's share of it.
    """
    context = build_context(workload_name, settings)
    corpus = context.workload.corpus
    _add_deep_posting_tables(corpus, context.queries, settings.seed)
    config = context.config(settings.hash_sizes[0] if settings.hash_sizes else 128)

    started = time.perf_counter()
    index = build_index(corpus, config=config)
    build_seconds = time.perf_counter() - started

    engine = MateDiscovery(corpus, index, config=config)
    probe_sets = [engine.probe_values(query) for query in context.queries]

    items_fetched = 0
    started = time.perf_counter()
    for _ in range(fetch_repeats):
        items_fetched = 0
        for values in probe_sets:
            blocks = index.fetch_batch(values)
            items_fetched += sum(len(block) for block in blocks)
    fetch_seconds = time.perf_counter() - started

    discover_seconds, prefilter_seconds = _timed_discovery(engine, context.queries)
    rows: list[list[object]] = [
        [
            "columnar",
            round(build_seconds, 4),
            round(fetch_seconds, 4),
            items_fetched,
            round(discover_seconds, 4),
            round(prefilter_seconds, 4),
        ],
    ]
    notes = [
        f"fetch column: {fetch_repeats} repeated initialization-step fetches "
        f"over {len(context.queries)} queries of {workload_name} "
        f"(+{DEEP_POSTING_TABLES} deep-posting tables of "
        f"{DEEP_POSTING_ROWS} rows)"
    ]
    return ExperimentResult(
        name=f"Columnar posting layout — {workload_name}",
        headers=[
            "layout",
            "build s",
            "fetch s",
            "PL items / pass",
            "discover s",
            "prefilter s",
        ],
        rows=rows,
        notes=notes,
    )
