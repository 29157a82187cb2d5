"""The four pipeline operators discovery decomposes into.

Each stage implements the uniform ``run(PlanContext) -> StageResult``
contract and accumulates its own wall-clock / volume accounting under
``counters.stages[<name>]``; every stage runs once per request:

* :class:`CandidateGeneration` — seed-column posting fetch (Section 6.1):
  builds ``superkey_map_Q``, charges the request budget, fetches the seed
  column's posting lists in one call, and groups + sorts the candidate
  tables;
* :class:`SuperKeyPrefilter` — the row filter (Section 6.3: the XASH reject,
  or a baseline's) over every candidate table's postings, and each table's
  rule-2 threshold;
* :class:`RowVerification` — exact verification of every candidate table's
  surviving rows and its Eq. 2 best-mapping score;
* :class:`TopKMaintenance` — the candidate-table loop of Algorithm 1 (lines
  7-22) as one replay in candidate order: the deadline check, rules 1 and 2
  as compares against ``j_k``, and the heap;
  then every counter, charged where the rules cut.

Every request runs on request-level arrays
(:class:`repro.index.batch.RequestArrays`), whatever its row filter: the
fetched blocks become arrays once, a candidate is a span of them, the
prefilter and the verification are one array pass each
(:func:`repro.core.joinability.verify_request` verifies the surviving pairs
of every candidate table against the postings of the request's key values,
read off the index; no table row is read), and the only state one table
hands the next — ``j_k`` — is carried by the replay alone.  Candidate
generation pins the index the request reads (a live index's snapshot): the
fetched blocks number their postings' rows, and row verification reads the
same numbering.  It also reads the candidate tables' widths, which the
verification charges, right after the fetch, so a write landing after
candidate generation changes nothing the request reads or charges (the
corpus is not snapshotted: an edit landing *during* the fetch may be
charged at the edited copy's width, never answered from it).  The
volumes of the prefilter and the verification depend on where rules 1 and 2
cut, so the replay charges them to those stages' statistics.

The composition under the :class:`~repro.plan.executor.Executor` is
equivalent to the pre-refactor monolithic loop
(``tests/helpers.legacy_discover``) run on the plan's seed column — the
equivalence the plan-equivalence and batch-execution test suites pin down
byte-for-byte, counters included.
"""

from __future__ import annotations

from time import perf_counter

from ..core.column_selection import complete_key_tuples
from ..index.batch import RequestArrays
from ..index.columnar import FetchBlock
from .context import PlanContext, StageResult
from .planner import (
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
        """Run the stage once, recording wall clock and item counts."""
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
        values = {key_tuple[position] for key_tuple in complete_key_tuples(query)}
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
        engine, budget = context.engine, context.budget
        index = engine.index
        # A live index answers every read from a fresh snapshot: the
        # request pins one, so its row verification reads the rows its
        # fetches numbered, whatever is written in between.
        snapshot = getattr(index, "snapshot", None)
        reader = context.reader = index if snapshot is None else snapshot()
        context.key_map = engine._build_key_super_key_map(
            context.query, context.plan.seed.column
        )
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
        if probe_values:
            # Through the engine's index, never the reader alone: a fetch
            # stays one call of ``index.fetch_batch``, whatever wraps it.
            if reader is index:
                blocks = index.fetch_batch(probe_values)
            else:
                blocks = index.fetch_batch(probe_values, snapshot=reader)
        fetched = sum(len(block) for block in blocks)
        counters = context.counters
        counters.pl_items_fetched = fetched
        context.report.observed_postings = fetched
        self._set_candidates(context, blocks)
        batch = context.batch
        counters.candidate_tables = len(batch.candidate_ids)
        # The (truncated) probe-list cardinality of the seed column.
        counters.extra["initial_column_cardinality"] = float(len(probe_values))
        return StageResult(
            self.name,
            items_in=len(probe_values),
            items_out=int(batch.candidate_stops.sum() - batch.candidate_starts.sum()),
        )

    def _set_candidates(self, context: PlanContext, blocks: list[FetchBlock]) -> None:
        """Turn the fetched blocks into request-level arrays, candidates
        sorted.

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
            reader=context.reader,
            get_table=engine.corpus.get_table,
            allowed=context.allowed_tables,
        )


class SuperKeyPrefilter(PlanStage):
    """Row filtering of every candidate table (lines 14-19 of Algorithm 1).

    One pass over all of the request's postings; it also derives, per
    candidate, the threshold ``T`` of rule 2 (fires once ``j_k >= T``).  What
    a table's scan charges depends on where the rules cut it, so
    :class:`TopKMaintenance` charges this stage's volumes.
    """

    name = STAGE_SUPERKEY_PREFILTER

    def _execute(self, context: PlanContext) -> StageResult:
        context.batch.prefilter()
        return StageResult(self.name)


class RowVerification(PlanStage):
    """Exact verification of surviving rows and Eq. 2 scoring (line 21).

    One pass verifies every candidate table's surviving pairs against the
    key values' postings of the pinned index; the plan report keeps its
    size.  Like the prefilter's, this stage's volumes are charged by
    :class:`TopKMaintenance`.
    """

    name = STAGE_ROW_VERIFICATION

    def _execute(self, context: PlanContext) -> StageResult:
        batch = context.batch
        batch.verify()
        context.report.verified_pairs = batch.verified_pairs
        return StageResult(self.name)


class TopKMaintenance(PlanStage):
    """The candidate-table loop (lines 7-22), replayed in candidate order.

    Per table: the deadline check (a clock read; the executor made the
    first table's, ahead of the prefilter), rule 1 (``L <= j_k``) and rule 2
    (``j_k >= T``) once ``k`` tables are kept, and a heap offer of the
    table's full score.  A table rule 2 cuts short is not offered: the cut
    came in front of a row ``i < L`` with ``matched(i) <= j_k - (L - i) <
    j_k``, and a prefix cannot score more than its matched postings (a
    mapping projects each row onto one key tuple), so the full heap rejects
    whatever the prefix scores.  Then every counter — and the prefilter's
    and verification's volumes — is charged at once, where the rules cut.
    """

    name = STAGE_TOPK_MAINTENANCE

    def _execute(self, context: PlanContext) -> StageResult:
        batch, topk, mappings = context.batch, context.topk, context.mappings
        budget, counters = context.budget, context.counters
        expired = budget.deadline_expired if budget is not None else None
        filters = context.engine.use_table_filters
        table_ids = batch.candidate_ids.tolist()
        lengths = (batch.candidate_stops - batch.candidate_starts).tolist()
        floor = None  # j_k while rules 1 and 2 are armed
        cut, floors = [], []  # the tables rule 2 cuts, and j_k at each
        kept = 0
        evaluated = len(table_ids)
        for position, (table_id, length, threshold, score) in enumerate(
            zip(table_ids, lengths, batch.thresholds.tolist(), batch.scores.tolist())
        ):
            if position and expired is not None and expired():
                evaluated = position
                break
            if floor is not None:
                if length <= floor:
                    counters.tables_pruned_by_rule1 += len(table_ids) - position
                    evaluated = position
                    break
                if floor >= threshold:
                    cut.append(position)
                    floors.append(floor)
                    continue
            if score and topk.update(table_id, score):
                kept += 1
                mappings[table_id] = batch.mappings[table_id]
                if filters and topk.is_full:
                    floor = topk.min_joinability()
        counters.tables_evaluated += evaluated
        counters.tables_pruned_by_rule2 += len(cut)
        postings, pairs, verified = batch.charge(evaluated, cut, floors, counters)
        prefilter = counters.stage_stats(STAGE_SUPERKEY_PREFILTER)
        prefilter.items_in += postings
        prefilter.items_out += pairs
        verification = counters.stage_stats(STAGE_ROW_VERIFICATION)
        verification.items_in += pairs
        verification.items_out += verified
        context.report.discarded_pairs = batch.verified_pairs - pairs
        return StageResult(self.name, items_in=evaluated, items_out=kept)
