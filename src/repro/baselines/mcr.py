"""Multi-Column Retrieval (MCR) baseline (Section 7.1.1).

MCR probes the single-attribute inverted index once *per query key column*,
intersects the retrieved (table, row) hits across columns, and verifies the
surviving rows exactly.  It avoids false-positive rows better than a naive
single-column fetch but pays for it by fetching far more posting-list items —
which is exactly why it loses badly on large, web-table-like corpora
(Figure 4).
"""

from __future__ import annotations

import time
from collections import defaultdict
from itertools import product

from ..config import MateConfig
from ..core.joinability import verify_table
from ..core.results import DiscoveryResult
from ..core.topk import TopKHeap
from ..datamodel import MISSING, QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..index import InvertedIndex
from ..metrics import DiscoveryCounters


class McrDiscovery:
    """MCR: per-column index probes intersected at the row level."""

    system_name = "mcr"

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        config: MateConfig | None = None,
    ):
        self.corpus = corpus
        self.index = index
        self.config = config or MateConfig()

    def discover(self, query: QueryTable, k: int | None = None) -> DiscoveryResult:
        """Return the top-k joinable tables for ``query`` using MCR."""
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = DiscoveryCounters()
        started = time.perf_counter()

        # ---------------- Per-column fetches ----------------
        # rows_by_column[i] maps (table, row) to the set of query values of
        # key column i that hit that row.
        rows_by_column: list[dict[tuple[int, int], set[str]]] = []
        for column in query.key_columns:
            values = sorted(query.table.distinct_column_values(column))
            hits: dict[tuple[int, int], set[str]] = defaultdict(set)
            fetched = 0
            for block in self.index.fetch_batch(values):
                fetched += len(block)
                for location in zip(block.table_ids, block.row_indexes):
                    hits[location].add(block.value)
            counters.pl_items_fetched += fetched
            counters.extra[f"pl_items[{column}]"] = float(fetched)
            rows_by_column.append(dict(hits))

        # ---------------- Row-level intersection ----------------
        common_rows = set(rows_by_column[0])
        for hits in rows_by_column[1:]:
            common_rows &= set(hits)
        counters.candidate_tables = len({table_id for table_id, _ in common_rows})
        counters.rows_checked = len(common_rows)

        # ---------------- Exact verification per table ----------------
        key_tuples = [key for key in sorted(query.key_tuples()) if MISSING not in key]
        rows_per_table: dict[int, list[int]] = defaultdict(list)
        for table_id, row_index in sorted(common_rows):
            rows_per_table[table_id].append(row_index)

        topk = TopKHeap(k)
        mappings: dict[int, tuple[int, ...] | None] = {}
        for table_id, row_indexes in rows_per_table.items():
            joinability, mapping, _ = verify_table(
                self.corpus.get_table(table_id).rows,
                product(row_indexes, key_tuples),
                counters,
            )
            if not key_tuples:
                # Nothing to verify against: the intersection's rows all failed.
                counters.rows_passed_filter += len(row_indexes)
                counters.false_positive_rows += len(row_indexes)
            counters.tables_evaluated += 1
            if topk.update(table_id, joinability):
                mappings[table_id] = mapping

        counters.runtime_seconds = time.perf_counter() - started
        names = {
            table_id: self.corpus.get_table(table_id).name
            for table_id, _ in topk.result_tuples()
        }
        return DiscoveryResult.from_ranked(
            system=self.system_name,
            k=k,
            ranked=topk.results(),
            counters=counters,
            mappings=mappings,
            names=names,
        )
