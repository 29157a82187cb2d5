"""The four pipeline operators discovery decomposes into.

Each stage implements the uniform ``run(PlanContext) -> StageResult``
contract and accumulates its own wall-clock / volume accounting under
``counters.stages[<name>]``:

* :class:`CandidateGeneration` — seed-column posting fetch (Section 6.1):
  builds ``superkey_map_Q``, charges the request budget, fetches the seed
  column's posting lists (in one shot, or chunked with adaptive re-planning),
  and groups + sorts the candidate tables;
* :class:`SuperKeyPrefilter` — the XASH reject (Section 6.3) of one candidate
  table, with table-filtering rule 2;
* :class:`RowVerification` — exact verification of the surviving rows and
  the Eq. 2 best-mapping score;
* :class:`TopKMaintenance` — offers the scored table to the top-k heap and
  fires the streaming snapshot hook on accepted updates.

Two execution paths run under the same stages and the same executor loop;
candidate generation picks one per request and records it on the plan report
(``execution_path`` / ``table_path_reason``):

* **batch** — the numpy kernel, row-filter mode ``superkey``, an index with
  ``fetch_batch`` and a packed super-key buffer on every fetched block.  The
  fetched blocks become request-level arrays once
  (:class:`repro.index.batch.RequestArrays`); a candidate is a span of them,
  the prefilter cuts it by arithmetic, and tables that keep many pairs are
  verified by the vector kernel over dictionary-encoded rows
  (:func:`repro.core.joinability.verify_encoded`).
* **table** — everything else (no numpy or ``MATE_KERNEL=fallback|off``,
  modes ``none`` / ``oracle``, an index without ``fetch_batch``, an unpacked
  block): one :class:`~repro.index.columnar.TableBlock` per candidate,
  prefiltered by the stdlib kernel (:mod:`repro.index.kernels`) or the
  verbatim per-row loop, verified by
  :func:`~repro.core.joinability.verify_table`.

Either composition under the :class:`~repro.plan.executor.Executor` is
line-for-line equivalent to the pre-refactor monolithic loop when re-planning
is disabled — the equivalence the plan-equivalence and batch-execution test
suites pin down byte-for-byte, counters included.
"""

from __future__ import annotations

from time import perf_counter

from ..core import joinability
from ..core.filters import should_abandon_table
from ..datamodel.encoding import ENCODER
from ..index import kernels
from ..index.columnar import (
    FetchBlock,
    TableBlock,
    group_into_table_blocks,
    group_items_into_table_blocks,
    pack_super_keys,
)
from .context import PlanContext, StageResult
from .planner import (
    ReplanEvent,
    STAGE_CANDIDATE_GENERATION,
    STAGE_ROW_VERIFICATION,
    STAGE_SKETCH_PRUNE,
    STAGE_SUPERKEY_PREFILTER,
    STAGE_TOPK_MAINTENANCE,
)


class PlanStage:
    """Base operator: timing + volume accounting around ``_execute``."""

    name = "stage"

    def run(self, context: PlanContext) -> StageResult:
        """Run the stage once, recording wall clock and item counts.

        Timing is inlined (no context manager): the per-table stages run
        once per candidate table, so wrapper cost is hot-path cost.
        """
        stats = context.counters.stage_stats(self.name)
        stats.calls += 1
        started = perf_counter()
        try:
            result = self._execute(context)
        finally:
            stats.seconds += perf_counter() - started
        stats.items_in += result.items_in
        stats.items_out += result.items_out
        return result

    def _execute(self, context: PlanContext) -> StageResult:
        raise NotImplementedError


class SketchPrune(PlanStage):
    """Approximate candidate pruning ahead of the exact pipeline.

    Queries the engine's :class:`~repro.sketch.SketchIndex` with the seed
    column's probe values and restricts the fetch universe
    (``context.allowed_tables``) to tables whose estimated containment
    clears the request's :class:`~repro.sketch.SketchOptions` threshold.
    With exhaustive settings (``threshold=0``, no candidate cap) the stage
    records its pass-through and changes nothing — the run stays
    byte-identical to the exact engine; it writes the
    ``sketch_candidates`` / ``sketch_estimated_recall`` extra counters only
    when it actually prunes.
    """

    name = STAGE_SKETCH_PRUNE

    def _execute(self, context: PlanContext) -> StageResult:
        sketch_index = context.sketch_index
        options = context.sketch
        total = sketch_index.num_tables if sketch_index is not None else 0
        if sketch_index is None or options is None or not options.enabled:
            return StageResult(
                self.name, items_in=total, items_out=total, detail="exhaustive"
            )
        query = context.query
        column = context.plan.seed.column
        position = query.key_columns.index(column)
        values = {
            key_tuple[position]
            for key_tuple in context.engine._complete_key_tuples(query)
        }
        scored = sketch_index.query(
            values,
            threshold=options.threshold,
            max_candidates=options.max_candidates,
        )
        context.allowed_tables = {table_id for table_id, _ in scored}
        counters = context.counters
        counters.extra["sketch_candidates"] = float(len(scored))
        counters.extra["sketch_estimated_recall"] = sketch_index.estimated_recall(
            options.threshold
        )
        return StageResult(
            self.name,
            items_in=total,
            items_out=len(scored),
            detail=f"threshold={options.threshold:g}",
        )


class CandidateGeneration(PlanStage):
    """Fetch the seed column's posting lists and group candidate tables."""

    name = STAGE_CANDIDATE_GENERATION

    def _execute(self, context: PlanContext) -> StageResult:
        if context.options.adaptive and context.plan.alternatives:
            values_charged, seed_values, detail = self._generate_adaptive(context)
        else:
            values_charged = seed_values = self._generate(
                context, context.plan.seed.column
            )
            detail = ""
        counters = context.counters
        counters.candidate_tables = len(context.candidates)
        # Legacy semantics: the (truncated) probe-list cardinality of the
        # *executed* seed column.  The stage's items_in additionally covers
        # the probe values charged for abandoned seed attempts.
        counters.extra["initial_column_cardinality"] = float(seed_values)
        return StageResult(
            self.name,
            items_in=values_charged,
            items_out=sum(len(block) for _, block in context.candidates),
            detail=detail,
        )

    # ------------------------------------------------------------------
    # One-shot path (modes "selector" and "cost"): the legacy fetch.
    # ------------------------------------------------------------------
    def _generate(self, context: PlanContext, column: str) -> int:
        engine = context.engine
        budget = context.budget
        context.key_map = engine._build_key_super_key_map(context.query, column)
        probe_values = list(context.key_map)

        if budget is not None:
            # Each probe value costs one posting-list fetch; a short budget
            # truncates the (deterministically ordered) probe list.  A
            # pre-expired deadline skips the fetch entirely.
            if budget.deadline_expired():
                probe_values = []
            else:
                granted = budget.take_pl_fetches(len(probe_values))
                probe_values = probe_values[:granted]

        blocks: list[FetchBlock] = []
        grouped: dict[int, TableBlock] = {}
        fetched = self._fetch_into(engine.index, probe_values, blocks, grouped)
        context.counters.pl_items_fetched = fetched
        context.report.seed_column = column
        context.report.observed_postings += fetched
        self._set_candidates(context, blocks, grouped)
        return len(probe_values)

    # ------------------------------------------------------------------
    # Adaptive path: chunked fetch with mid-run seed switching.
    # ------------------------------------------------------------------
    def _generate_adaptive(self, context: PlanContext) -> tuple[int, int, str]:
        engine = context.engine
        budget = context.budget
        options = context.options
        report = context.report
        attempts = [context.plan.seed, *context.plan.alternatives]
        attempt_index = 0
        total_observed = 0
        total_charged = 0

        while True:
            candidate = attempts[attempt_index]
            column = candidate.column
            context.key_map = engine._build_key_super_key_map(
                context.query, column
            )
            probe_values = list(context.key_map)
            blocks: list[FetchBlock] = []
            grouped: dict[int, TableBlock] = {}
            observed = 0
            values_fetched = 0
            replanned = False
            curtailed = False

            for start in range(0, len(probe_values), options.replan_check_every):
                chunk = probe_values[start : start + options.replan_check_every]
                if budget is not None:
                    if budget.deadline_expired():
                        curtailed = True
                        break
                    granted = budget.take_pl_fetches(len(chunk))
                    if granted < len(chunk):
                        curtailed = True
                    chunk = chunk[:granted]
                observed += self._fetch_into(engine.index, chunk, blocks, grouped)
                values_fetched += len(chunk)
                total_charged += len(chunk)
                if curtailed:
                    # The ledger is spent: answer from what this column
                    # fetched — a re-plan could not pay for fresh fetches.
                    break
                remaining = attempts[attempt_index + 1 :]
                if start + options.replan_check_every < len(probe_values) and remaining:
                    # The noise floor of one posting per probe value keeps a
                    # near-zero estimate from triggering pointless switches.
                    prorated = candidate.estimate.scaled(values_fetched)
                    threshold = (
                        max(prorated, float(values_fetched)) * options.replan_factor
                    )
                    if observed > threshold:
                        report.replans.append(
                            ReplanEvent(
                                from_column=column,
                                to_column=remaining[0].column,
                                observed_postings=observed,
                                estimated_postings=prorated,
                                values_fetched=values_fetched,
                            )
                        )
                        report.discarded_postings += observed
                        total_observed += observed
                        attempt_index += 1
                        replanned = True
                        break
            if replanned:
                continue

            total_observed += observed
            context.counters.pl_items_fetched = total_observed
            report.seed_column = column
            report.observed_postings = total_observed
            if report.replans:
                context.counters.extra["replans"] = float(len(report.replans))
                context.counters.extra["discarded_pl_items"] = float(
                    report.discarded_postings
                )
            self._set_candidates(context, blocks, grouped)
            return (
                total_charged,
                values_fetched,
                "replanned" if report.replans else "",
            )

    @staticmethod
    def _fetch_into(
        index,
        values: list[str],
        blocks: list[FetchBlock],
        grouped: dict[int, TableBlock],
    ) -> int:
        """Fetch one chunk; returns the number of PL items fetched.

        The per-value blocks of a ``fetch_batch`` are kept as they are
        (``blocks``) — which path regroups them is decided once the fetch is
        over.  An index with only the classic ``fetch`` surface has its items
        merged into the per-table grouping right away; chunks arrive in
        probe order, so the accumulated grouping equals a single-shot fetch
        of the same final value list.
        """
        if not values:
            return 0
        fetch_batch = getattr(index, "fetch_batch", None)
        if fetch_batch is not None:
            fetched = fetch_batch(values)
            blocks.extend(fetched)
            return sum(len(block) for block in fetched)
        items = index.fetch(values)
        group_items_into_table_blocks(items, into=grouped)
        return len(items)

    @staticmethod
    def _table_path_reason(context: PlanContext, blocks: list[FetchBlock]) -> str:
        """Why the request-level arrays cannot serve this run ("" if they can)."""
        kernel = kernels.active_kernel()
        if kernel != "numpy":
            return f"kernel {kernel or 'off'}"
        mode = context.engine.row_filter.mode
        if mode != "superkey":
            return f"row filter {mode}"
        if getattr(context.engine.index, "fetch_batch", None) is None:
            return "index without fetch_batch"
        for block in blocks:
            if block.super_key_bytes is None:
                return f"unpacked block for value {block.value!r}"
        return ""

    def _set_candidates(
        self,
        context: PlanContext,
        blocks: list[FetchBlock],
        grouped: dict[int, TableBlock],
    ) -> None:
        """Group the fetched postings by table and sort the candidates.

        Candidate tables are processed by decreasing PL-item count, then
        table id (line 5); the sketch tier's verdict (``allowed_tables``,
        ``None`` = no pruning happened) restricts them first.
        """
        report = context.report
        report.table_path_reason = self._table_path_reason(context, blocks)
        if not report.table_path_reason:
            from ..index.batch import RequestArrays  # needs numpy

            report.execution_path = "batch"
            context.batch = RequestArrays(
                blocks,
                context.key_map,
                context.engine.row_filter.super_key_generator.length_segment_shift,
            )
            context.candidates = context.batch.candidates(context.allowed_tables)
            return
        report.execution_path = "table"
        group_into_table_blocks(blocks, into=grouped)
        allowed = context.allowed_tables
        items = grouped.items()
        if allowed is not None:
            items = [entry for entry in items if entry[0] in allowed]
        context.candidates = sorted(
            items, key=lambda entry: (-len(entry[1]), entry[0])
        )


class SuperKeyPrefilter(PlanStage):
    """Row filtering of one candidate table (lines 14-19 of Algorithm 1).

    On the batch path the table's span is cut out of the request's arrays
    (:meth:`_execute_batch`; the first call of a request runs the reject
    over all of its postings).  On the table path the block goes through
    the stdlib kernel (:meth:`_execute_kernel`: coverage splicing, or one
    whole-block pass for blocks without run provenance) and falls back to
    the verbatim per-row loop (:meth:`_execute_rows`) when kernels are off,
    the row-filter mode needs corpus rows (``oracle``), or the block's
    super keys cannot be packed.  All of them produce bit-identical
    survivors, counters, and stage statistics (pinned by the differential
    suites).
    """

    name = STAGE_SUPERKEY_PREFILTER

    def _execute(self, context: PlanContext) -> StageResult:
        if context.batch is not None:
            return self._execute_batch(context)
        mode = context.engine.row_filter.mode
        if mode != "oracle" and kernels.active_kernel() is not None:
            result = self._execute_kernel(context, mode)
            if result is not None:
                return result
        return self._execute_rows(context)

    def _execute_batch(self, context: PlanContext) -> StageResult:
        """Batch path: cut this table's span out of the request's arrays."""
        engine = context.engine
        topk = context.topk
        span = context.current_block
        rows_checked, checks, hits, abandoned, surviving = context.batch.cut(
            span,
            topk.min_joinability()
            if engine.use_table_filters and topk.is_full
            else None,
        )
        counters = context.counters
        counters.rows_checked += rows_checked
        counters.superkey_checks += checks
        counters.short_circuit_hits += hits
        if abandoned:
            counters.tables_pruned_by_rule2 += 1
        context.surviving = surviving
        return StageResult(
            self.name,
            items_in=len(span),
            items_out=len(surviving),
            detail="abandoned" if abandoned else "",
        )

    def _execute_kernel(
        self, context: PlanContext, mode: str
    ) -> StageResult | None:
        """Kernel path; ``None`` when the block cannot be packed."""
        engine = context.engine
        block = context.current_block
        topk = context.topk
        min_joinability = (
            topk.min_joinability()
            if engine.use_table_filters and topk.is_full
            else None
        )
        result = None
        packed = None
        width = 0
        length_shift = None
        if mode == "superkey":
            generator = engine.row_filter.super_key_generator
            length_shift = generator.length_segment_shift
            result = self._prefilter_mapped(
                context, block, length_shift, min_joinability
            )
            if result is None:
                # A run came without a packed buffer (legacy layout, spilled
                # oversize key): pack the integer column, or leave the block
                # to the row loop.
                width = max(1, (generator.hash_size + 7) // 8)
                packed = pack_super_keys(block.super_keys, width)
                if packed is None:
                    return None
        if result is None:
            value_runs = getattr(block, "value_runs", None)
            result = kernels.prefilter_block(
                # Only read without runs; a TableBlock expands them on demand.
                values=block.values if value_runs is None else (),
                row_indexes=block.row_indexes,
                key_map=context.key_map,
                posting_count=len(block),
                value_runs=value_runs,
                packed=packed,
                width=width,
                mode=mode,
                length_shift=length_shift,
                min_joinability=min_joinability,
            )
        counters = context.counters
        counters.rows_checked += result.rows_checked
        counters.superkey_checks += result.superkey_checks
        counters.short_circuit_hits += result.short_circuit_hits
        detail = ""
        if result.abandoned:
            counters.tables_pruned_by_rule2 += 1
            detail = "abandoned"
        context.surviving = result.surviving
        return StageResult(
            self.name,
            items_in=len(block),
            items_out=len(result.surviving),
            detail=detail,
        )

    @staticmethod
    def _prefilter_mapped(
        context: PlanContext,
        block,
        length_shift: int | None,
        min_joinability: int | None,
    ) -> "kernels.PrefilterResult | None":
        """Coverage-splicing fast path; ``None`` without run provenance.

        The reject test runs once per ``(probe value, key entry)`` over the
        *whole* per-value fetch block (memoised there) and this table's
        slice of the resulting bitmaps is evaluated with plain byte
        operations — so the vector pass is amortised across every candidate
        table sharing the value, which is what beats the row loop on the
        few-row blocks per-table grouping produces.
        """
        sources = getattr(block, "cov_sources", None)
        if sources is None:
            return None
        kernel = kernels.active_kernel() or "fallback"
        key_map_get = context.key_map.get
        run_cov = []
        for source, fetch_start, table_start, count in sources:
            entries = key_map_get(source.value, ())
            if not entries:
                continue
            per_level = source.query_coverage(entries, length_shift, kernel)
            run_cov.append((table_start, fetch_start, count, entries, per_level))
        return kernels.prefilter_table_block(
            row_indexes=block.row_indexes,
            run_cov=run_cov,
            posting_count=len(block),
            min_joinability=min_joinability,
        )

    def _execute_rows(self, context: PlanContext) -> StageResult:
        """The scalar per-row loop, kept verbatim (the kernels' oracle)."""
        engine = context.engine
        counters = context.counters
        topk = context.topk
        table_id = context.current_table_id
        block = context.current_block
        posting_count = len(block)
        rows_checked = 0
        rows_matched = 0
        surviving: list[tuple[int, tuple[str, ...]]] = []
        detail = ""

        use_table_filters = engine.use_table_filters
        key_map_get = context.key_map.get
        get_row = engine.corpus.get_row
        passes = engine.row_filter.passes
        for value, row_index, super_key in zip(
            block.values, block.row_indexes, block.super_keys
        ):
            if use_table_filters and should_abandon_table(
                posting_count, rows_checked, rows_matched, topk
            ):
                counters.tables_pruned_by_rule2 += 1
                detail = "abandoned"
                break
            rows_checked += 1
            counters.rows_checked += 1
            row = get_row(table_id, row_index)
            row_survived = False
            for key_tuple, key_super_key in key_map_get(value, ()):
                if passes(super_key, key_super_key, row, key_tuple, counters):
                    surviving.append((row_index, key_tuple))
                    row_survived = True
            if row_survived:
                rows_matched += 1

        context.surviving = surviving
        return StageResult(
            self.name,
            items_in=posting_count,
            items_out=len(surviving),
            detail=detail,
        )


class RowVerification(PlanStage):
    """Exact verification of surviving rows and Eq. 2 scoring (line 21)."""

    name = STAGE_ROW_VERIFICATION

    def _execute(self, context: PlanContext) -> StageResult:
        table = context.engine.corpus.get_table(context.current_table_id)
        surviving = context.surviving
        result = None
        if (
            context.batch is not None
            and len(surviving) >= joinability.VECTOR_VERIFY_MIN_PAIRS
        ):
            keys = context.batch.keys
            matrix = ENCODER.matrix(table, keys)
            result = joinability.verify_encoded(
                matrix, surviving.rows, surviving.keys, keys, context.counters
            )
        if result is None:
            result = joinability.verify_table(
                table.rows, surviving, context.counters
            )
        context.joinability, context.mapping, verified = result
        return StageResult(self.name, items_in=len(surviving), items_out=verified)


class TopKMaintenance(PlanStage):
    """Offer the scored table to the heap; fire the streaming hook."""

    name = STAGE_TOPK_MAINTENANCE

    def _execute(self, context: PlanContext) -> StageResult:
        kept = context.topk.update(context.current_table_id, context.joinability)
        if kept:
            context.mappings[context.current_table_id] = context.mapping
            if context.on_snapshot is not None:
                context.on_snapshot(context.topk.result_tuples())
        return StageResult(self.name, items_in=1, items_out=int(kept))
