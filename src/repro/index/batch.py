"""Request-level arrays: every candidate table grouped, prefiltered, cut and
verified in array passes, once per request.

Every request keeps its :class:`~repro.index.columnar.FetchBlock` s and
builds :class:`RequestArrays` once; a candidate table is then a *span*
``[start, stop)`` of positions, and whatever scanning a prefix of it charges
is a difference of prefix sums.

**Table order.**  The blocks' ``table_ids`` columns are concatenated in fetch
order (probe order, then posting order) and argsorted *stably* by table id.
A stable sort keeps equal keys in input order, so the positions of one table
come out in probe order, then posting order — the order Algorithm 1 groups a
table's postings in (line 5).

**Row filters.**  A posting's pairs are its probe value's key entries that
survive the row filter: in mode ``superkey`` the ones its super key covers
(the memoised bitmaps of :meth:`FetchBlock.query_coverage`), in mode
``none`` (the SCR baseline) all of them, unchecked, and in mode ``oracle``
(the ideal filter of Figure 5) the ones its row contains — the comparison
half of the verification pass (:func:`~repro.core.joinability.key_matches`)
over every candidate table's postings, once per request.

**Rule 2 as a threshold.**  The per-row loop asks, *before* scanning row
``i`` of a table with ``L`` postings, whether ``L - i + matched(i) <= j_k``,
where ``matched(i)`` counts the matching rows among the first ``i``.  That
is ``unmatched(i) >= L - j_k``: the scan stops in front of the first row
that has ``deficit = L - j_k`` unmatched rows before it, which is the row
after the table's ``deficit``-th unmatched row — and only if that row
exists, because no question is asked after the last row.  So rule 2 fires
exactly when the first ``L - 1`` rows hold ``L - j_k`` unmatched ones, that
is when ``j_k >= T``, the table's threshold ``L - (unmatched rows among the
first L - 1)`` (:attr:`RequestArrays.thresholds`).  Where it cuts is one
index lookup into the sorted positions of all unmatched rows
(:meth:`RequestArrays.cut_ends`).

**Verification, then one replay.**  The only thing a table's verification
needs from the tables before it is ``j_k``, and ``j_k`` only decides where
rule 2 cuts.  So the surviving pairs of *every* candidate table are verified
in one array pass (:meth:`RequestArrays.verify`: one gather of the tables'
encoded rows, one :func:`~repro.core.joinability.verify_request` call),
which keeps, per pair, what verifying it charges and, per table, its Eq. 2
answer over all of its pairs.  The planner's top-k stage then replays the
candidates in candidate order on ``L``, ``T`` and that score alone, and
:meth:`RequestArrays.charge` charges every counter at once, as prefix-sum
differences at the cut ends.  The pairs of a table rule 1 prunes, of a
rule-2 suffix, or behind a deadline break are verified and never charged
(:attr:`~repro.plan.planner.PlanReport.discarded_pairs`).
"""

from __future__ import annotations

import ctypes
import sys
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

import numpy as np

from ..datamodel.encoding import ENCODER, EncodedKeys
from .columnar import FetchBlock
from .kernels import KeyEntry

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..datamodel.table import Table
    from ..metrics import DiscoveryCounters

_INDEX = np.intp

#: glibc ``mallopt`` parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap() -> None:
    """Pin glibc's malloc thresholds at the values its adaptive rule tops
    out at: blocks from 32 MiB up are mapped, and the heap is trimmed once
    64 MiB at its top are free.

    A request builds its arrays afresh and frees them at its end — 9 MB at
    the peak of the largest ``od_verify`` request.  Under the adaptive rule
    the thresholds rise only when a large mapped block is freed, so whether
    the next request finds those pages still mapped depends on what the
    process happened to free before: a process that built one index trims
    its heap after every large request and faults the pages back in on the
    next (1,500–6,800 minor faults per ``od_verify`` pass, at either
    segment format), one that once dropped a big enough index does not.
    Pinned, every process behaves like the latter.  Nothing happens off
    glibc (``mallopt`` is missing, or a no-op).
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_heap()


class RequestArrays:
    """The fetched postings of one request, in candidate-table order."""

    def __init__(
        self,
        blocks: Sequence[FetchBlock],
        key_map: Mapping[str, Sequence[KeyEntry]],
        length_shift: int | None,
        mode: str = "superkey",
        get_table: "Callable[[int], Table] | None" = None,
        allowed: set[int] | None = None,
    ):
        """``blocks`` in probe order; ``key_map``, ``length_shift`` (the
        XASH length-segment bit position, ``None`` without one) and ``mode``
        (the row filter) are what :meth:`prefilter` runs with.
        ``get_table`` maps a table id to the
        :class:`~repro.datamodel.table.Table` the postings point into (row
        filter ``oracle`` and :meth:`verify` read the tables' rows);
        ``allowed`` is the sketch tier's verdict on the candidates
        (``None``: every fetched table)."""
        self.blocks = blocks
        self.key_map = key_map
        self.length_shift = length_shift
        self.mode = mode
        self.get_table = get_table
        #: Postings per block: as many as its packed key buffer holds.
        self.lengths = lengths = [
            len(block.super_key_bytes) // block.key_width for block in blocks
        ]
        if blocks:
            # One C call per column: numpy copies out of the posting columns
            # and holds no view of them past this statement.
            table_ids = np.concatenate(
                [block.table_ids[:count] for block, count in zip(blocks, lengths)]
            )
            row_indexes = np.concatenate(
                [block.row_indexes[:count] for block, count in zip(blocks, lengths)]
            )
        else:
            table_ids = row_indexes = np.empty(0, dtype=np.int64)
        #: Fetch position of each table-order position.
        self.order = order = np.argsort(table_ids, kind="stable")
        #: Row index of each posting, table order.
        self.row_indexes = row_indexes[order]
        sorted_ids = table_ids[order]
        edges = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
        bounds = np.concatenate(
            ([0] if len(order) else [], edges, [len(order)])
        ).astype(_INDEX)
        table_ids, starts, stops = sorted_ids[bounds[:-1]], bounds[:-1], bounds[1:]
        if allowed is not None:
            keep = np.isin(table_ids, np.fromiter(allowed, np.int64, len(allowed)))
            table_ids, starts, stops = table_ids[keep], starts[keep], stops[keep]
        #: Table ids, span starts and span stops of the candidates, in table
        #: order (ascending id, so ascending spans).
        self._table_order = (table_ids, starts, stops)
        #: Table-order index of each candidate, in candidate order:
        #: decreasing posting count, then table id — line 5 of Algorithm 1
        #: as ``sorted(key=(-len, id))`` computes it.
        self._ranked = ranked = np.lexsort((table_ids, starts - stops))
        #: Table id, span start and span stop of each candidate, in
        #: candidate order.
        self.candidate_ids = table_ids[ranked]
        self.candidate_starts = starts[ranked]
        self.candidate_stops = stops[ranked]
        #: The request's key tuples (a pair names its key tuple by position
        #: here); ``None`` until the prefilter has run.
        self.keys: EncodedKeys | None = None

    # ------------------------------------------------------------------
    # Prefilter
    # ------------------------------------------------------------------
    def prefilter(self) -> None:
        """Run the row filter over every fetched posting, once, and derive
        every candidate's rule-2 threshold.

        The per-``(value, key entry)`` bitmaps are the memoised
        :meth:`FetchBlock.query_coverage` ones (all ones without a key
        test); this scatters them into the pair arrays (table order, key-map
        entry order within a posting — the per-row loop's order), keeps the
        contained pairs under row filter ``oracle``, and lays out the prefix
        sums the cuts are charged from.
        """
        key_map, length_shift = self.key_map, self.length_shift
        total = len(self.order)
        tuples: list[tuple[str, ...]] = []
        counts: list[int] = []
        covered: list[bytes] = []
        short_circuited: list[bytes] = []
        # Entries beyond a value's first: (fetch offset, key id, bitmaps).
        further: list[tuple[int, int, bytes, bytes | None]] = []
        offset = 0
        for block, count in zip(self.blocks, self.lengths):
            entries = key_map.get(block.value, ())
            counts.append(len(entries))
            if entries:
                if self.mode == "superkey":
                    bitmaps = block.query_coverage(entries, length_shift)
                else:  # every entry survives the key test, unchecked
                    bitmaps = [(b"\x01" * count, None)] * len(entries)
                covered.append(bitmaps[0][0])
                short_circuited.append(bitmaps[0][1] or bytes(count))
                for level in range(1, len(entries)):
                    further.append((offset, len(tuples) + level, *bitmaps[level]))
            else:
                covered.append(bytes(count))
                short_circuited.append(bytes(count))
            tuples.extend(key_tuple for key_tuple, _ in entries)
            offset += count

        order = self.order
        lengths = np.array(self.lengths, dtype=_INDEX)
        entry_counts = np.array(counts, dtype=_INDEX)
        first_key = np.cumsum(entry_counts) - entry_counts
        # First entry of every value: one bitmap over the whole fetch.
        pair_at = np.flatnonzero(_bits(b"".join(covered))[order])
        pair_keys = np.repeat(first_key, lengths)[order][pair_at]
        hits = _bits(b"".join(short_circuited)).astype(_INDEX)  # fetch order
        if further:
            position_of = np.empty(total, dtype=_INDEX)
            position_of[order] = np.arange(total, dtype=_INDEX)
            pairs, keys = [pair_at], [pair_keys]
            for offset, key, cov, sc in further:
                at = position_of[offset + np.flatnonzero(_bits(cov))]
                pairs.append(at)
                keys.append(np.full(len(at), key, dtype=_INDEX))
                if sc is not None:
                    hits[offset : offset + len(sc)] += _bits(sc)
            pair_at = np.concatenate(pairs)
            pair_keys = np.concatenate(keys)
            # A value's entries were appended in key-map order, after every
            # first entry: a stable sort by position alone leaves the pairs
            # of one posting in that order.
            ranked = np.argsort(pair_at, kind="stable")
            pair_at, pair_keys = pair_at[ranked], pair_keys[ranked]
        keys = EncodedKeys(tuples)
        if self.mode == "oracle":
            contained = self._contained(pair_at, pair_keys, keys)
            pair_at, pair_keys = pair_at[contained], pair_keys[contained]
        #: Row index and key id of every surviving pair, scan order.
        self.pair_rows = self.row_indexes[pair_at]
        self.pair_keys = pair_keys

        pairs_per_posting = np.bincount(pair_at, minlength=total)
        unmatched = pairs_per_posting == 0
        #: Table-order positions of the postings no key entry covers.
        self.unmatched_at = np.flatnonzero(unmatched)
        #: Row ``p``: unmatched postings, super-key checks, short-circuit
        #: hits and surviving pairs among the positions before ``p``.
        self.prefix = prefix = np.zeros((total + 1, 4), dtype=_INDEX)
        np.cumsum(unmatched, out=prefix[1:, 0])
        if self.mode == "superkey":
            np.cumsum(np.repeat(entry_counts, lengths)[order], out=prefix[1:, 1])
        np.cumsum(hits[order], out=prefix[1:, 2])
        np.cumsum(pairs_per_posting, out=prefix[1:, 3])
        self.keys = keys
        starts, stops = self.candidate_starts, self.candidate_stops
        #: Per candidate, candidate order: ``T``, the least ``j_k`` at which
        #: rule 2 cuts the table (see the module docstring).
        self.thresholds = stops - starts - (prefix[stops - 1, 0] - prefix[starts, 0])

    def _contained(self, pair_at, pair_keys, keys: EncodedKeys):
        """Which of the pairs ``(pair_at, pair_keys)`` (every key entry of
        every posting, scan order) the posting's row contains: row filter
        ``oracle``, on the candidate tables' pairs (the others stay out)."""
        from ..core.joinability import key_matches

        contained = np.zeros(len(pair_at), dtype=bool)
        table_ids, starts, stops = self._table_order
        firsts = np.searchsorted(pair_at, starts)
        lasts = np.searchsorted(pair_at, stops)
        kept = lasts > firsts
        if kept.any():
            firsts, lasts = firsts[kept], lasts[kept]
            tables = list(map(self.get_table, table_ids[kept].tolist()))
            select, _, cells = _gather(
                tables, firsts, lasts, self.row_indexes[pair_at], keys
            )
            columns = np.fromiter(
                (table.num_columns for table in tables), np.int64, len(tables)
            )
            owner, _ = key_matches(
                cells, np.repeat(columns, lasts - firsts), pair_keys[select], keys
            )
            contained[np.arange(len(pair_at))[select][owner]] = True
        return contained

    def cut_ends(self, positions, floors):
        """Where rule 2 cuts the candidates at ``positions`` (candidate
        order) under the floors ``floors``, each in ``[T, L)`` of its table:
        one past the last row the per-row loop scans, per candidate."""
        starts = self.candidate_starts[positions]
        deficits = self.candidate_stops[positions] - starts - floors
        return self.unmatched_at[self.prefix[starts, 0] + deficits - 1] + 1

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Verify the surviving pairs of every candidate table, in one pass.

        Sets :attr:`verdicts` (what verifying each pair charges, as prefix
        sums), :attr:`scores` (every candidate's Eq. 2 joinability over all
        of its pairs, candidate order, 0 without a verified pair),
        :attr:`mappings` (the scored tables' column mappings, by table id)
        and :attr:`verified_pairs`.
        """
        table_ids, starts, stops = self._table_order
        pair_ends = self.prefix[:, 3]
        firsts, lasts = pair_ends[starts], pair_ends[stops]
        kept = np.flatnonzero(lasts > firsts)
        ids = table_ids[kept]
        self.verdicts, best, scores, mappings = verify_spans(
            list(map(self.get_table, ids.tolist())),
            firsts[kept],
            lasts[kept],
            self.pair_rows,
            self.pair_keys,
            self.keys,
        )
        by_table = np.zeros(len(table_ids), dtype=np.int64)
        by_table[kept[best]] = scores
        self.scores = by_table[self._ranked]
        self.mappings = dict(zip(ids[best].tolist(), mappings))
        self.verified_pairs = int((lasts - firsts).sum())

    def charge(
        self, evaluated: int, cut, floors, counters: "DiscoveryCounters"
    ) -> tuple[int, int, int]:
        """Charge ``counters`` for scanning and verifying the first
        ``evaluated`` candidates, rule 2 cutting the ones at positions
        ``cut`` under the floors ``floors`` (:meth:`cut_ends`).

        Every counter is a sum of prefix-sum differences at the scans'
        ends.  Returns the postings the scans received, the pairs they let
        through (the verified pairs charged) and how many of those verify.
        """
        starts = self.candidate_starts[:evaluated]
        stops = self.candidate_stops[:evaluated]
        ends = stops.copy()
        if cut:
            ends[cut] = self.cut_ends(np.array(cut), np.array(floors))
        prefix, verdicts = self.prefix, self.verdicts
        _, checks, hits, pairs = (
            prefix[ends].sum(axis=0) - prefix[starts].sum(axis=0)
        ).tolist()
        firsts, lasts = prefix[starts, 3], prefix[ends, 3]
        comparisons, rows, verified, hit_rows = (
            verdicts[lasts].sum(axis=0) - verdicts[firsts].sum(axis=0)
        ).tolist()
        counters.rows_checked += int(ends.sum() - starts.sum())
        counters.superkey_checks += checks
        counters.short_circuit_hits += hits
        counters.value_comparisons += comparisons
        counters.rows_passed_filter += rows
        counters.true_positive_rows += hit_rows
        counters.false_positive_rows += rows - hit_rows
        return int(stops.sum() - starts.sum()), pairs, verified


def verify_spans(
    tables: Sequence["Table"],
    firsts,
    lasts,
    pair_rows,
    pair_keys,
    keys: EncodedKeys,
):
    """Verify the pairs ``[firsts[t], lasts[t])`` of every table ``t``.

    ``pair_rows`` / ``pair_keys`` are a request's pair arrays (row index,
    row of ``keys.ids``); the ranges are non-empty, ascending and disjoint,
    and may leave pairs out (the tables the sketch tier pruned), which are
    then never encoded, compared or charged.  The tables' encoded rows are
    gathered into one ragged cell array, in one dictionary generation, for
    one :func:`~repro.core.joinability.verify_request` call.  Returns
    ``(prefix, tables, scores, mappings)``: row ``p`` of ``prefix`` holds
    the value comparisons, ``(table, row)`` s seen, verified pairs and
    ``(table, row)`` s verified among the pairs before ``p``, each table's
    pairs counted from the table's first pair; the rest is
    :func:`~repro.core.joinability.verify_request`'s answer per table.
    """
    # Imported here: repro.core imports the planner, which imports this.
    from ..core.joinability import verify_request

    total = len(pair_rows)
    prefix = np.zeros((total + 1, 4), dtype=np.int64)
    if not len(tables):
        return prefix, np.empty(0, dtype=_INDEX), np.empty(0, dtype=np.int64), []
    counts = lasts - firsts
    columns = np.fromiter(
        (table.num_columns for table in tables), np.int64, len(tables)
    )
    select, rows, cells = _gather(tables, firsts, lasts, pair_rows, keys)
    charges, best, scores, mappings = verify_request(
        cells,
        columns,
        np.repeat(np.arange(len(tables)), counts),
        rows,
        pair_keys[select],
        keys,
    )
    if len(rows) < total:
        spread = np.zeros((total, 4), dtype=np.int64)
        spread[select] = charges
        charges = spread
    np.cumsum(charges, axis=0, out=prefix[1:])
    return prefix, best, scores, mappings


def _gather(tables, firsts, lasts, pair_rows, keys: EncodedKeys):
    """The pairs ``[firsts[t], lasts[t])`` of every table ``t`` (non-empty,
    ascending, disjoint ranges into ``pair_rows``): ``(select, rows,
    cells)`` — which pairs (a slice when it is all of them), their row
    indexes, and their rows' cells end to end, encoded with ``keys`` in one
    dictionary generation."""
    counts = lasts - firsts
    pairs = int(counts.sum())
    offsets = np.cumsum(counts) - counts
    select = (
        slice(None)
        if pairs == len(pair_rows)
        else np.arange(pairs) + np.repeat(firsts - offsets, counts)
    )
    rows = pair_rows[select]
    cells = np.concatenate(
        [
            matrix.take(rows[offset : offset + count], axis=0).ravel()
            for matrix, offset, count in zip(
                ENCODER.matrices(tables, keys), offsets.tolist(), counts.tolist()
            )
        ]
    )
    return select, rows, cells


def _bits(bitmap: bytes):
    """A one-byte-per-row bitmap as a ``uint8`` array (no copy)."""
    return np.frombuffer(bitmap, dtype=np.uint8)
