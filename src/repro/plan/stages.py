"""The four pipeline operators discovery decomposes into.

Each stage implements the uniform ``run(PlanContext) -> StageResult``
contract and accumulates its own wall-clock / volume accounting under
``counters.stages[<name>]``:

* :class:`CandidateGeneration` — seed-column posting fetch (Section 6.1):
  builds ``superkey_map_Q``, charges the request budget, fetches the seed
  column's posting lists (in one shot, or chunked with adaptive re-planning),
  and groups + sorts the candidate tables;
* :class:`SuperKeyPrefilter` — the row filter (Section 6.3: the XASH reject,
  or a baseline's) of one candidate table, with table-filtering rule 2;
* :class:`RowVerification` — exact verification of the surviving rows and
  the Eq. 2 best-mapping score;
* :class:`TopKMaintenance` — offers the scored table to the top-k heap and
  fires the streaming snapshot hook on accepted updates.

Every request runs on request-level arrays
(:class:`repro.index.batch.RequestArrays`), whatever its row filter: the
fetched blocks become arrays once, a candidate is a span of them and the
prefilter cuts it by arithmetic.  The first verification verifies the
surviving pairs of every candidate table in one pass over dictionary-encoded
rows (:func:`repro.core.joinability.verify_request`); each table's
verification then replays that pass over the pairs its cut kept
(:meth:`repro.index.batch.RequestVerdicts.replay`), in candidate order, so
``j_k``, rules 1 and 2 and the heap evolve exactly as in a table-at-a-time
run.  Only a request whose Eq. 2 codes could overflow ``int64`` is verified
table by table (:func:`~repro.core.joinability.verify_table`).

The composition under the :class:`~repro.plan.executor.Executor` is
line-for-line equivalent to the pre-refactor monolithic loop
(``tests/helpers.legacy_discover``) when re-planning is disabled — the
equivalence the plan-equivalence and batch-execution test suites pin down
byte-for-byte, counters included.
"""

from __future__ import annotations

from time import perf_counter

from ..core import joinability
from ..index.batch import RequestArrays
from ..index.columnar import FetchBlock
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
        fetched = self._fetch_into(engine.index, probe_values, blocks)
        context.counters.pl_items_fetched = fetched
        context.report.seed_column = column
        context.report.observed_postings += fetched
        self._set_candidates(context, blocks)
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
                observed += self._fetch_into(engine.index, chunk, blocks)
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
            self._set_candidates(context, blocks)
            return (
                total_charged,
                values_fetched,
                "replanned" if report.replans else "",
            )

    @staticmethod
    def _fetch_into(index, values: list[str], blocks: list[FetchBlock]) -> int:
        """Fetch one chunk; returns the number of PL items fetched.

        The per-value blocks are kept as they are (``blocks``) until the
        fetch is over.  Chunks arrive in probe order, so the accumulated
        blocks equal a single-shot fetch of the same final value list.
        """
        if not values:
            return 0
        fetched = index.fetch_batch(values)
        blocks.extend(fetched)
        return sum(len(block) for block in fetched)

    def _set_candidates(self, context: PlanContext, blocks: list[FetchBlock]) -> None:
        """Turn the fetched blocks into request-level arrays and sort the
        candidates.

        Candidate tables are processed by decreasing PL-item count, then
        table id (line 5); the sketch tier's verdict (``allowed_tables``,
        ``None`` = no pruning happened) restricts them first.
        """
        engine = context.engine
        row_filter = engine.row_filter
        context.batch = RequestArrays(
            blocks,
            context.key_map,
            row_filter.super_key_generator.length_segment_shift,
            row_filter.mode,
            engine.corpus.get_table,
        )
        context.candidates = context.batch.candidates(context.allowed_tables)


class SuperKeyPrefilter(PlanStage):
    """Row filtering of one candidate table (lines 14-19 of Algorithm 1).

    The table's span is cut out of the request's arrays (the first call of
    a request runs the row filter over all of its postings).
    """

    name = STAGE_SUPERKEY_PREFILTER

    def _execute(self, context: PlanContext) -> StageResult:
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


class RowVerification(PlanStage):
    """Exact verification of surviving rows and Eq. 2 scoring (line 21).

    The first call runs the request's verification pass — lazily, so behind
    a deadline check that passed, like the prefilter — and every call
    replays it for the current table; the plan report keeps the pass's size
    and the pairs no replay has charged.
    """

    name = STAGE_ROW_VERIFICATION

    def _execute(self, context: PlanContext) -> StageResult:
        surviving = context.surviving
        verdicts = context.batch.verify()
        if verdicts is None:
            result = joinability.verify_table(
                context.engine.corpus.get_table(context.current_table_id).rows,
                surviving,
                context.counters,
            )
        else:
            result = verdicts.replay(
                context.current_table_id, surviving, context.counters
            )
            report = context.report
            report.verified_pairs = verdicts.pairs
            report.discarded_pairs = verdicts.pairs - verdicts.charged
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
