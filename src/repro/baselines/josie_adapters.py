"""JOSIE-based baselines for n-ary join discovery (Section 7.1.1).

JOSIE is a *single-column* joinable table search engine; the paper adapts it
to composite keys in two ways, both reproduced here on top of the
from-scratch :class:`~repro.baselines.josie.JosieSearch`:

* **SCR-Josie** — run JOSIE on the initial query column to rank candidate
  tables by single-column overlap, then verify the full composite key on each
  candidate (falling back on the row-level SCR index, i.e. exact value
  comparisons).  Because the single-column overlap upper-bounds the composite
  joinability, the scan stops once the next candidate's overlap cannot beat
  the current k-th best.
* **MCR-Josie** — run JOSIE once per query key column, intersect the table
  sets that appear in every per-column result, and verify those tables.
"""

from __future__ import annotations

import time

from ..config import MateConfig
from ..core.column_selection import ColumnSelector, get_column_selector
from ..core.joinability import verify_table
from ..core.results import DiscoveryResult
from ..core.topk import TopKHeap
from ..datamodel import QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..metrics import DiscoveryCounters
from .josie import JosieIndex, JosieSearch


class _JosieBase:
    """Shared plumbing of the two JOSIE adaptations."""

    system_name = "josie"

    def __init__(
        self,
        corpus: TableCorpus,
        josie_index: JosieIndex | None = None,
        config: MateConfig | None = None,
        #: How many JOSIE candidates to consider per probe, as a multiple of k.
        candidate_factor: int = 10,
    ):
        self.corpus = corpus
        self.config = config or MateConfig()
        self.josie_index = josie_index or JosieIndex.build(corpus)
        self.search = JosieSearch(self.josie_index)
        if candidate_factor <= 0:
            raise DiscoveryError("candidate_factor must be positive")
        self.candidate_factor = candidate_factor

    def _verify_tables(
        self,
        query: QueryTable,
        table_ids: list[int],
        k: int,
        counters: DiscoveryCounters,
    ) -> tuple[TopKHeap, dict[int, tuple[int, ...] | None]]:
        """Exactly verify candidate tables (in the given order) against the key.

        The JOSIE overlap of a single column counts *distinct values*, which
        does not upper-bound the composite joinability (distinct key tuples),
        so — unlike MATE's table filter — no early termination is sound here;
        every retrieved candidate is verified.  This is exactly the overhead
        the paper attributes to adapting single-column systems to n-ary keys.
        Verification matches rows in memory (like the SCR fallback the paper
        describes) instead of enumerating column permutations.
        """
        key_tuples = sorted(query.key_tuples())
        topk = TopKHeap(k)
        mappings: dict[int, tuple[int, ...] | None] = {}
        for table_id in table_ids:
            table = self.corpus.get_table(table_id)
            counters.tables_evaluated += 1
            counters.rows_checked += table.num_rows

            # Rows that contain the first value of a key tuple are the only
            # candidates for that tuple; index them once per table.
            rows_by_value: dict[str, list[int]] = {}
            for row_index, row in enumerate(table.rows):
                for value in set(row):
                    rows_by_value.setdefault(value, []).append(row_index)

            joinability, mapping, _ = verify_table(
                table.rows,
                (
                    (row_index, key_tuple)
                    for key_tuple in key_tuples
                    for row_index in rows_by_value.get(key_tuple[0], ())
                ),
                counters,
            )
            if topk.update(table_id, joinability):
                mappings[table_id] = mapping
        return topk, mappings

    def _result(
        self,
        query: QueryTable,
        k: int,
        topk: TopKHeap,
        mappings: dict[int, tuple[int, ...] | None],
        counters: DiscoveryCounters,
    ) -> DiscoveryResult:
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


class ScrJosieDiscovery(_JosieBase):
    """SCR-Josie: JOSIE on the initial column, exact verification on top."""

    system_name = "scr_josie"

    def __init__(
        self,
        corpus: TableCorpus,
        josie_index: JosieIndex | None = None,
        config: MateConfig | None = None,
        column_selector: ColumnSelector | str = "cardinality",
        candidate_factor: int = 10,
    ):
        super().__init__(corpus, josie_index, config, candidate_factor)
        self.column_selector = (
            get_column_selector(column_selector)
            if isinstance(column_selector, str)
            else column_selector
        )

    def discover(self, query: QueryTable, k: int | None = None) -> DiscoveryResult:
        """Return the top-k joinable tables using the SCR-Josie strategy."""
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = DiscoveryCounters()
        started = time.perf_counter()

        initial_column = self.column_selector(query, None)
        values = sorted(query.table.distinct_column_values(initial_column))
        ranked_tables = self.search.top_k_tables(values, k=k * self.candidate_factor)
        counters.pl_items_fetched = self.search.last_posting_reads
        counters.candidate_tables = len(ranked_tables)

        table_ids = [table_id for table_id, _ in ranked_tables]
        topk, mappings = self._verify_tables(query, table_ids, k, counters)
        counters.runtime_seconds = time.perf_counter() - started
        return self._result(query, k, topk, mappings, counters)


class McrJosieDiscovery(_JosieBase):
    """MCR-Josie: JOSIE per key column, intersect, then verify."""

    system_name = "mcr_josie"

    def discover(self, query: QueryTable, k: int | None = None) -> DiscoveryResult:
        """Return the top-k joinable tables using the MCR-Josie strategy."""
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = DiscoveryCounters()
        started = time.perf_counter()

        per_column_tables: list[dict[int, int]] = []
        for column in query.key_columns:
            values = sorted(query.table.distinct_column_values(column))
            ranked = self.search.top_k_tables(values, k=k * self.candidate_factor)
            counters.pl_items_fetched += self.search.last_posting_reads
            counters.extra[f"josie_candidates[{column}]"] = float(len(ranked))
            per_column_tables.append(dict(ranked))

        common = set(per_column_tables[0])
        for tables in per_column_tables[1:]:
            common &= set(tables)
        counters.candidate_tables = len(common)

        # Order the surviving tables by the *minimum* per-column overlap — a
        # reasonable priority heuristic (all columns must overlap for a
        # composite join), evaluated exhaustively below.
        bounds = {
            table_id: min(tables[table_id] for tables in per_column_tables)
            for table_id in common
        }
        ordered = sorted(common, key=lambda table_id: (-bounds[table_id], table_id))
        topk, mappings = self._verify_tables(query, ordered, k, counters)
        counters.runtime_seconds = time.perf_counter() - started
        return self._result(query, k, topk, mappings, counters)
