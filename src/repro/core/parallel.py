"""Sharded (scale-out) discovery.

The paper's experiments ran on a 128-core server with the index inside a
column store; a deployment at DWTC scale would shard the inverted index
across workers and merge per-shard results.  This module reproduces that
architecture at library scale:

* :func:`shard_corpus` splits a corpus into ``num_shards`` disjoint
  sub-corpora (round-robin over table ids, so shard sizes stay balanced);
* :class:`ShardedMateDiscovery` builds one extended inverted index per shard
  (the offline step a distributed deployment performs per worker), runs the
  standard :class:`~repro.core.discovery.MateDiscovery` engine on every shard
  in turn, and merges the per-shard top-k lists.

Merging per-shard top-k results is lossless: the global k-th best joinability
is at least every shard's local k-th best, so any table pruned inside a shard
(its joinability is bounded by the shard's local ``j_k``) can never enter the
global top-k.  The same argument the paper makes for table-filter rule 1
therefore carries over shard boundaries unchanged.

The shards run serially: pure-Python threads would not speed up the
CPU-bound parts (the GIL).  True parallelism is one worker process per shard,
:class:`~repro.serve.pool.ProcessShardPool`, with the same partitioning and
merge.  The measured quantity of interest here — and what the scale-out
experiment reports — is the per-shard work balance (rows checked / PL items
fetched per shard).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..config import MateConfig
from ..datamodel import QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..index import IndexBuilder, InvertedIndex
from ..metrics import DiscoveryCounters
from .discovery import MateDiscovery
from .results import DiscoveryResult, TableResult
from .topk import TopKHeap


def shard_corpus(corpus: TableCorpus, num_shards: int) -> list[TableCorpus]:
    """Split ``corpus`` into ``num_shards`` disjoint sub-corpora.

    Tables are assigned round-robin over the sorted table ids, which keeps the
    shards balanced in table count regardless of how ids were allocated.
    Shards may be empty when the corpus has fewer tables than shards.
    """
    if num_shards <= 0:
        raise DiscoveryError(f"num_shards must be positive, got {num_shards}")
    shards = [
        TableCorpus(name=f"{corpus.name}_shard_{shard_index}")
        for shard_index in range(num_shards)
    ]
    for position, table_id in enumerate(sorted(corpus.table_ids())):
        shards[position % num_shards].add_table(corpus.get_table(table_id))
    return shards


@dataclass(frozen=True)
class ShardStatistics:
    """Per-shard accounting of one sharded discovery run."""

    shard_index: int
    num_tables: int
    pl_items_fetched: int
    rows_checked: int
    runtime_seconds: float


def merge_discovery_results(
    results: list[DiscoveryResult], k: int, system: str = "mate-sharded"
) -> DiscoveryResult:
    """Merge per-shard discovery results into one global top-k result.

    Counters are summed; the runtime is set to the *maximum* shard runtime
    (shards run concurrently in the deployment being modelled), with the sum
    preserved under ``counters.extra["total_shard_seconds"]``.
    """
    if k <= 0:
        raise DiscoveryError(f"k must be positive, got {k}")
    by_table: dict[int, TableResult] = {}
    counters = DiscoveryCounters()
    max_runtime = 0.0
    total_runtime = 0.0
    for result in results:
        counters.merge(result.counters)
        max_runtime = max(max_runtime, result.counters.runtime_seconds)
        total_runtime += result.counters.runtime_seconds
        for entry in result.tables:
            # Shards over disjoint corpora never report the same table twice,
            # but the merge stays correct for overlapping inputs by keeping
            # the best score per table.
            current = by_table.get(entry.table_id)
            if current is None or entry.joinability > current.joinability:
                by_table[entry.table_id] = entry
    topk = TopKHeap(k)
    for entry in by_table.values():
        topk.update(entry.table_id, entry.joinability)
    counters.runtime_seconds = max_runtime
    counters.extra["total_shard_seconds"] = total_runtime
    tables = [
        TableResult(
            table_id=ranked.table_id,
            joinability=ranked.joinability,
            column_mapping=by_table[ranked.table_id].column_mapping,
            table_name=by_table[ranked.table_id].table_name,
        )
        for ranked in topk.results()
    ]
    return DiscoveryResult(system=system, k=k, tables=tables, counters=counters)


class ShardedMateDiscovery:
    """MATE discovery over a sharded corpus with per-shard indexes."""

    system_name = "mate-sharded"

    def __init__(
        self,
        corpus: TableCorpus,
        num_shards: int = 4,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        column_selector="cardinality",
        row_filter_mode: str = "superkey",
        use_table_filters: bool = True,
    ):
        if num_shards <= 0:
            raise DiscoveryError(f"num_shards must be positive, got {num_shards}")
        self.corpus = corpus
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        # Algorithm 1 knobs, forwarded to every per-shard engine.
        self.column_selector = column_selector
        self.row_filter_mode = row_filter_mode
        self.use_table_filters = use_table_filters
        self.shards = shard_corpus(corpus, num_shards)
        builder = IndexBuilder(
            config=self.config, hash_function_name=hash_function_name
        )
        self.shard_indexes: list[InvertedIndex] = [
            builder.build(shard) for shard in self.shards
        ]
        self.last_shard_statistics: list[ShardStatistics] = []

    @property
    def num_shards(self) -> int:
        """Number of shards the corpus was split into."""
        return len(self.shards)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def _discover_shard(
        self, shard_index: int, query: QueryTable, k: int
    ) -> tuple[int, DiscoveryResult]:
        shard = self.shards[shard_index]
        engine = MateDiscovery(
            shard,
            self.shard_indexes[shard_index],
            config=self.config,
            hash_function_name=self.hash_function_name,
            column_selector=self.column_selector,
            row_filter_mode=self.row_filter_mode,
            use_table_filters=self.use_table_filters,
        )
        started = time.perf_counter()
        result = engine.discover(query, k=k)
        result.counters.runtime_seconds = time.perf_counter() - started
        return shard_index, result

    def discover(self, query: QueryTable, k: int | None = None) -> DiscoveryResult:
        """Return the global top-k joinable tables across all shards."""
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")

        shard_results = [
            self._discover_shard(index, query, k)
            for index in range(self.num_shards)
        ]

        self.last_shard_statistics = [
            ShardStatistics(
                shard_index=index,
                num_tables=len(self.shards[index]),
                pl_items_fetched=result.counters.pl_items_fetched,
                rows_checked=result.counters.rows_checked,
                runtime_seconds=result.counters.runtime_seconds,
            )
            for index, result in shard_results
        ]
        merged = merge_discovery_results(
            [result for _, result in shard_results], k, system=self.system_name
        )
        return merged

    def work_imbalance(self) -> float:
        """Ratio of the busiest to the average shard (rows checked) of the last run.

        1.0 means perfectly balanced shards; large values indicate that one
        shard would dominate the wall-clock time of a real deployment.
        Returns 0.0 before the first discovery run.
        """
        if not self.last_shard_statistics:
            return 0.0
        rows = [s.rows_checked for s in self.last_shard_statistics]
        average = sum(rows) / len(rows)
        if average == 0:
            return 1.0
        return max(rows) / average
