"""The SQL-pushdown discovery engine: Algorithm 1 compiled into SQLite.

Every other engine of this reproduction materialises posting lists in Python
and filters them there.  :class:`SQLPushdownEngine` instead compiles the
data-heavy phases of one discovery run into two parameterised queries over
the accelerator schema (:mod:`repro.engine_sql.accelerator`):

* **candidate generation** — the seed column's probe values go into a TEMP
  table and one probe join + ``GROUP BY table_id`` returns each candidate
  table's posting count (the ``L_t`` of the pruning rules) without a single
  posting list crossing into Python;
* **the XASH reject** — per surviving candidate table, a second query
  reconstructs the mate engine's scan order with a window function
  (``ROW_NUMBER() OVER (ORDER BY probe order, posting position)``), joins
  the query's key super keys, and applies ``key & ~row_mask == 0`` — as
  native integer arithmetic when the hash fits 63 bits, else through the
  registered ``repro_covers`` BLOB function;
* **table filtering** — rule 1 stays the sorted-order early exit; rule 2's
  abandonment point is *replayed* in closed form from the passing row
  positions the query returned, so the pruning decisions (and every
  counter they feed) are identical to the scalar loop's.

Only the surviving ``(row, key tuple)`` pairs are row-verified in Python —
the exact containment check and Eq. 2 scoring reuse the same helpers as the
mate engine — so the returned top-k, column mappings, counters that survive
pushdown, and the ``complete`` flag are byte-for-byte identical to
``engine="mate"``, while ``pl_items_fetched`` and ``superkey_checks`` stay
at zero: those costs moved into the database.  The rows the database
scanned are reported as ``counters.extra["pushdown_rows_scanned"]``.

The engine serialises concurrent ``discover`` calls on one instance behind
a lock (its TEMP tables are per-connection state); sessions cache one
instance per request signature, so this mirrors how SQLite connections are
shared elsewhere.
"""

from __future__ import annotations

import sqlite3
import threading
from time import perf_counter
from typing import TYPE_CHECKING

from ..config import MateConfig
from ..core.column_selection import ColumnSelector, get_column_selector
from ..core.discovery import MateDiscovery
from ..core.filters import should_prune_table
from ..core.joinability import verify_table
from ..core.results import DiscoveryResult
from ..core.topk import TopKHeap
from ..datamodel import QueryTable, TableCorpus
from ..exceptions import DiscoveryError
from ..hashing import SuperKeyGenerator
from ..index import InvertedIndex
from ..metrics import DiscoveryCounters
from ..plan.executor import emit_plan_spans
from ..plan.planner import (
    PlanReport,
    QueryPlan,
    SeedCandidate,
    STAGE_ROW_VERIFICATION,
    STAGE_TOPK_MAINTENANCE,
)
from ..telemetry import trace as _trace
from .accelerator import (
    INDEX_NAME,
    MAX_NARROW_HASH_SIZE,
    build_accelerator,
    key_width,
    register_covers_function,
    split_limbs,
)

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..api.request import RequestBudget

#: Stage name of the pushed-down candidate generation + prefilter phase.
STAGE_PUSHDOWN_SCAN = "pushdown_scan"

#: The pushdown plan's stage tuple: one SQL scan stage replaces candidate
#: generation and the super-key prefilter; verification and top-k stay in
#: Python (they need corpus rows).
PUSHDOWN_STAGES: tuple[str, ...] = (
    STAGE_PUSHDOWN_SCAN,
    STAGE_ROW_VERIFICATION,
    STAGE_TOPK_MAINTENANCE,
)

#: Phase A: candidate tables with their posting counts (``L_t``), computed
#: entirely inside the store.  ``repro_probe`` holds the (budget-truncated)
#: probe values in probe order.  CROSS JOIN pins the join order — drive
#: from the few probe values into the ``pushdown_by_value`` index; left to
#: itself SQLite scans the postings and probes the index-less TEMP table,
#: which is O(postings × probes).
_CANDIDATES_SQL = """
SELECT a.table_id, COUNT(*)
FROM repro_probe AS p
CROSS JOIN pushdown_postings AS a INDEXED BY pushdown_by_value
  ON a.index_name = ? AND a.value = p.value
GROUP BY a.table_id
"""

#: Phase B: one candidate table's passing (row, key) pairs in the exact
#: order the mate engine's scalar loop would visit them.  ``block_pos``
#: numbers the table's items by (probe order, posting position) — the
#: order the mate engine's request arrays give a table's postings (a stable
#: sort of ``fetch_batch``'s blocks by table id) — *before* the key join,
#: so positions are stable regardless of how many keys match.  The
#: ``pushdown_by_table`` index is forced so each candidate scan touches
#: only that table's postings (O(block) per table, O(scanned) overall)
#: instead of re-walking every probe value's full posting list.
_SCAN_SQL = """
SELECT t.block_pos, t.row_index, k.key_ord
FROM (
    SELECT a.value AS value, a.row_index AS row_index,
           a.super_key AS super_key,
           a.super_key_hi AS super_key_hi, a.super_key_lo AS super_key_lo,
           ROW_NUMBER() OVER (ORDER BY p.ord, a.pos) - 1 AS block_pos
    FROM repro_probe AS p
    CROSS JOIN pushdown_postings AS a INDEXED BY pushdown_by_table
      ON a.index_name = ? AND a.table_id = ? AND a.value = p.value
) AS t
JOIN repro_keys AS k ON k.value = t.value
{covers}
ORDER BY t.block_pos, k.key_ord
"""

#: Pure-SQL reject over the signed 64-bit limb columns (hash ≤ 128 bits).
#: SQLite bitwise ops work on the raw two's-complement bit pattern, so the
#: signed representation is transparent here.
_COVERS_NARROW = (
    "WHERE (k.key_lo & ~t.super_key_lo) = 0 "
    "AND (k.key_hi & ~t.super_key_hi) = 0"
)
#: BLOB reject through the registered deterministic function (wider keys).
_COVERS_WIDE = "WHERE repro_covers(t.super_key, k.key_sk)"

_TEMP_SCHEMA = """
CREATE TEMP TABLE IF NOT EXISTS repro_probe (
    ord INTEGER PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TEMP TABLE IF NOT EXISTS repro_keys (
    key_ord INTEGER PRIMARY KEY,
    value TEXT NOT NULL,
    key_sk BLOB NOT NULL,
    key_hi INTEGER,
    key_lo INTEGER
);
CREATE INDEX IF NOT EXISTS repro_keys_by_value
    ON repro_keys (value, key_ord);
"""


class SQLPushdownEngine:
    """Top-k joinable table discovery pushed down into SQLite.

    Parameters mirror :class:`~repro.core.discovery.MateDiscovery` where
    they mean the same thing.  The engine builds a private in-memory
    accelerator from ``index`` at construction time — a one-time cost, so
    discovery runs still perform zero Python-side posting fetches.

    ``row_filter_mode`` supports ``"superkey"`` (the real MATE reject) and
    ``"none"`` (the SCR-style pass-through).  ``"oracle"`` needs the corpus
    row of every posting *during* filtering and therefore cannot be pushed
    down; requesting it raises.
    """

    system_name = "sql"
    #: Instance-level capability flag (see ``DiscoverySession._run_kwargs``).
    supports_budget = True

    # Probe/key-map semantics are inherited verbatim from the mate engine so
    # the two can never disagree on what gets probed.
    _build_key_super_key_map = MateDiscovery._build_key_super_key_map

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        config: MateConfig | None = None,
        hash_function_name: str | None = None,
        column_selector: ColumnSelector | str = "cardinality",
        row_filter_mode: str = "superkey",
        use_table_filters: bool = True,
    ):
        self.corpus = corpus
        self.index = index
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name or index.hash_function_name
        if row_filter_mode not in ("superkey", "none"):
            raise DiscoveryError(
                f'engine "sql" cannot push down row_filter_mode '
                f"{row_filter_mode!r}: it needs the corpus row of every "
                "posting during filtering; supported modes are "
                "'superkey' and 'none'"
            )
        if (
            row_filter_mode == "superkey"
            and self.hash_function_name != index.hash_function_name
        ):
            raise DiscoveryError(
                "the discovery hash function must match the index "
                f"({self.hash_function_name!r} != {index.hash_function_name!r})"
            )
        if not hasattr(index, "block"):
            raise DiscoveryError(
                'engine "sql" requires an index exposing its block (an '
                f"InvertedIndex or a LiveSnapshot; got {type(index).__name__})"
            )
        self.super_key_generator = SuperKeyGenerator.from_name(
            self.hash_function_name, self.config
        )
        self.column_selector = (
            get_column_selector(column_selector)
            if isinstance(column_selector, str)
            else column_selector
        )
        self.row_filter_mode = row_filter_mode
        self.use_table_filters = use_table_filters
        self._lock = threading.Lock()
        connection = sqlite3.connect(":memory:", check_same_thread=False)
        build_accelerator(connection, index)
        register_covers_function(connection)
        connection.executescript(_TEMP_SCHEMA)
        self._connection = connection
        narrow = (
            index.hash_size <= MAX_NARROW_HASH_SIZE
            and self.super_key_generator.hash_size <= MAX_NARROW_HASH_SIZE
        )
        self._key_blob_width = key_width(self.super_key_generator.hash_size)
        if row_filter_mode == "none":
            covers = ""
        elif narrow:
            covers = _COVERS_NARROW
        else:
            covers = _COVERS_WIDE
        self._scan_sql = _SCAN_SQL.format(covers=covers)
        self._narrow = narrow

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the accelerator's connection (idempotent)."""
        self._connection.close()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def discover(
        self,
        query: QueryTable,
        k: int | None = None,
        *,
        budget: "RequestBudget | None" = None,
    ) -> DiscoveryResult:
        """Return the top-k joinable tables for ``query``.

        Semantics — including budget charging (one ``max_pl_fetches`` unit
        per probe value, pushdown or not, so a budgeted run truncates the
        same probe list as the mate engine), deadline checks and the
        ``complete`` flag — match
        :meth:`MateDiscovery.discover
        <repro.core.discovery.MateDiscovery.discover>` exactly.
        """
        if k is None:
            k = self.config.k
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        counters = DiscoveryCounters()
        started = perf_counter()
        chosen = self.column_selector(query, self.index)
        if chosen not in query.key_columns:
            raise DiscoveryError(
                f"initial column {chosen!r} is not a key column of the query"
            )
        plan = QueryPlan(
            mode="pushdown", seed=SeedCandidate(chosen), stages=PUSHDOWN_STAGES
        )
        report = PlanReport(plan=plan)
        topk = TopKHeap(k)
        mappings: dict[int, tuple[int, ...] | None] = {}

        with self._lock:
            candidates, key_entries = self._pushdown_candidates(
                query, chosen, budget, counters, report
            )
            for position, (table_id, posting_count) in enumerate(candidates):
                if budget is not None and budget.deadline_expired():
                    break
                if self.use_table_filters and should_prune_table(
                    posting_count, topk
                ):
                    counters.tables_pruned_by_rule1 += (
                        len(candidates) - position
                    )
                    break
                surviving = self._scan_table(
                    table_id, posting_count, topk, counters, key_entries
                )
                joinability, mapping = self._verify_rows(
                    table_id, surviving, counters
                )
                counters.tables_evaluated += 1
                self._maintain_topk(
                    topk, mappings, table_id, joinability, mapping, counters
                )

        complete = True
        if budget is not None:
            counters.budget_exhausted = int(budget.exhausted)
            counters.deadline_expired = int(budget.expired)
            complete = budget.complete
        counters.runtime_seconds = perf_counter() - started
        if _trace._ACTIVE:
            emit_plan_spans(plan.seed.column, counters, k)
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
            complete=complete,
            plan=report,
        )

    # ------------------------------------------------------------------
    # Phase A: candidate generation in SQL
    # ------------------------------------------------------------------
    def _pushdown_candidates(
        self,
        query: QueryTable,
        column: str,
        budget: "RequestBudget | None",
        counters: DiscoveryCounters,
        report: PlanReport,
    ) -> tuple[list[tuple[int, int]], list[tuple[str, ...]]]:
        """Load the probe/key TEMP tables and return sorted candidates.

        Returns ``(candidates, key_entries)`` where candidates are
        ``(table_id, posting_count)`` in the mate engine's processing order
        (count descending, id ascending) and ``key_entries[key_ord]`` maps
        the SQL-side key ordinal back to its key tuple.
        """
        stats = counters.stage_stats(STAGE_PUSHDOWN_SCAN)
        stats.calls += 1
        started = perf_counter()
        try:
            key_map = self._build_key_super_key_map(query, column)
            probe_values = list(key_map)
            if budget is not None:
                # Identical charging to the mate engine: one posting-list
                # fetch unit per probe value, deterministic truncation.  The
                # database scans rows instead of Python fetching lists, but
                # the ledger must not depend on the engine or a budgeted
                # request would return different tables per engine.
                if budget.deadline_expired():
                    probe_values = []
                else:
                    granted = budget.take_pl_fetches(len(probe_values))
                    probe_values = probe_values[:granted]

            connection = self._connection
            connection.execute("DELETE FROM repro_probe")
            connection.execute("DELETE FROM repro_keys")
            connection.executemany(
                "INSERT INTO repro_probe (ord, value) VALUES (?, ?)",
                list(enumerate(probe_values)),
            )
            key_entries: list[tuple[str, ...]] = []
            key_rows = []
            width = self._key_blob_width
            for value in probe_values:
                for key_tuple, key_super_key in key_map[value]:
                    hi, lo = (
                        split_limbs(key_super_key)
                        if self._narrow
                        else (None, None)
                    )
                    key_rows.append(
                        (
                            len(key_entries),
                            value,
                            key_super_key.to_bytes(width, "big"),
                            hi,
                            lo,
                        )
                    )
                    key_entries.append(key_tuple)
            connection.executemany(
                "INSERT INTO repro_keys "
                "(key_ord, value, key_sk, key_hi, key_lo) "
                "VALUES (?, ?, ?, ?, ?)",
                key_rows,
            )
            counts = connection.execute(
                _CANDIDATES_SQL, (INDEX_NAME,)
            ).fetchall()
            candidates = sorted(
                ((table_id, count) for table_id, count in counts),
                key=lambda entry: (-entry[1], entry[0]),
            )
            scanned = sum(count for _, count in candidates)
            counters.candidate_tables = len(candidates)
            counters.extra["initial_column_cardinality"] = float(
                len(probe_values)
            )
            counters.extra["pushdown_rows_scanned"] = float(scanned)
            report.observed_postings += scanned
        finally:
            stats.seconds += perf_counter() - started
        stats.items_in += len(probe_values)
        stats.items_out += scanned
        return candidates, key_entries

    # ------------------------------------------------------------------
    # Phase B: the pushed-down prefilter + rule-2 replay
    # ------------------------------------------------------------------
    def _scan_table(
        self,
        table_id: int,
        posting_count: int,
        topk: TopKHeap,
        counters: DiscoveryCounters,
        key_entries: list[tuple[str, ...]],
    ) -> list[tuple[int, tuple[str, ...]]]:
        """Run the reject in SQL and replay rule 2 over the pass positions.

        The scalar loop abandons a table at the first scan position where
        even a perfect outcome of the remaining rows cannot beat ``j_k``:
        with ``need = L_t - j_k`` failures required, that is one past the
        ``need``-th failing position.  Both ``j_k`` and the top-k fullness
        are fixed while one table is scanned (the heap only updates after
        verification), so the abandonment point is a pure function of the
        pass positions the query returned — no per-item Python loop needed.
        """
        stats = counters.stage_stats(STAGE_PUSHDOWN_SCAN)
        stats.calls += 1
        started = perf_counter()
        try:
            pairs = self._connection.execute(
                self._scan_sql, (INDEX_NAME, table_id)
            ).fetchall()
            cutoff = posting_count
            abandoned = False
            if self.use_table_filters and topk.is_full:
                need = posting_count - topk.min_joinability()
                # Rule 1 admitted this table, so L_t > j_k and need >= 1.
                # Walk the distinct pass positions (pairs are ordered) and
                # push the candidate failure index past each pass it covers;
                # q lands on the need-th failing position.
                q = need - 1
                previous = -1
                for block_pos, _row_index, _key_ord in pairs:
                    if block_pos == previous:
                        continue
                    previous = block_pos
                    if block_pos <= q:
                        q += 1
                    else:
                        break
                if q + 1 <= posting_count - 1:
                    abandoned = True
                    cutoff = q + 1
            counters.rows_checked += cutoff
            if abandoned:
                counters.tables_pruned_by_rule2 += 1
            surviving = [
                (row_index, key_entries[key_ord])
                for block_pos, row_index, key_ord in pairs
                if block_pos < cutoff
            ]
        finally:
            stats.seconds += perf_counter() - started
        stats.items_in += posting_count
        stats.items_out += len(surviving)
        return surviving

    # ------------------------------------------------------------------
    # Row verification + top-k (Python; identical to the mate stages)
    # ------------------------------------------------------------------
    def _verify_rows(
        self,
        table_id: int,
        surviving: list[tuple[int, tuple[str, ...]]],
        counters: DiscoveryCounters,
    ) -> tuple[int, tuple[int, ...] | None]:
        stats = counters.stage_stats(STAGE_ROW_VERIFICATION)
        stats.calls += 1
        started = perf_counter()
        try:
            joinability, mapping, verified = verify_table(
                self.corpus.get_table(table_id).rows, surviving, counters
            )
        finally:
            stats.seconds += perf_counter() - started
        stats.items_in += len(surviving)
        stats.items_out += verified
        return joinability, mapping

    def _maintain_topk(
        self,
        topk: TopKHeap,
        mappings: dict[int, tuple[int, ...] | None],
        table_id: int,
        joinability: int,
        mapping: tuple[int, ...] | None,
        counters: DiscoveryCounters,
    ) -> None:
        stats = counters.stage_stats(STAGE_TOPK_MAINTENANCE)
        stats.calls += 1
        started = perf_counter()
        try:
            kept = topk.update(table_id, joinability)
            if kept:
                mappings[table_id] = mapping
        finally:
            stats.seconds += perf_counter() - started
        stats.items_in += 1
        stats.items_out += int(kept)
