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
(the ideal filter of Figure 5) the ones its row contains — the matching
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
in one array pass (:meth:`RequestArrays.verify`: one
:func:`~repro.core.joinability.verify_request` call), which keeps, per
pair, what verifying it charges and, per table, its Eq. 2 answer over all
of its pairs.  No row is read: a pair names its row by the ordinal its
fetched posting carries, and the pass matches the pairs' rows against the
``(row ordinal, column)`` postings of the request's distinct key values,
read once per request off the index the request fetched from
(:func:`read_key_postings`, the index's ``row_postings``; a live index's
pinned snapshot).  The planner's top-k stage then replays the
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

from ..datamodel import MISSING
from .columnar import FetchBlock
from .kernels import KeyEntry

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..core.joinability import KeyPostings
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
        reader=None,
        get_table: "Callable[[int], Table] | None" = None,
        allowed: set[int] | None = None,
    ):
        """``blocks`` in probe order; ``key_map``, ``length_shift`` (the
        XASH length-segment bit position, ``None`` without one) and ``mode``
        (the row filter) are what :meth:`prefilter` runs with.  ``reader``
        is the index the blocks were fetched from (a live index's pinned
        snapshot), whose ``row_postings`` row filter ``oracle`` and
        :meth:`verify` read; ``get_table`` maps a table id to the
        :class:`~repro.datamodel.table.Table` whose width :meth:`verify`
        charges, read here (``None``: the arrays are never verified);
        ``allowed`` is the sketch tier's verdict on the candidates
        (``None``: every fetched table)."""
        self.blocks = blocks
        self.key_map = key_map
        self.length_shift = length_shift
        self.mode = mode
        self.reader = reader
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
            ordinals = np.concatenate(
                [block.row_ordinals[:count] for block, count in zip(blocks, lengths)]
            )
        else:
            table_ids = ordinals = np.empty(0, dtype=np.int64)
        #: Fetch position of each table-order position.
        self.order = order = np.argsort(table_ids, kind="stable")
        #: Row ordinal of each posting, table order.
        self.ordinals = ordinals[order]
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
        #: Column count of each candidate, table order: what verifying its
        #: pairs charges.  Read with the fetch, so an edit landing between
        #: two stages does not change what the request charges either.
        self.widths = None
        if get_table is not None:
            self.widths = np.fromiter(
                (get_table(table_id).num_columns for table_id in table_ids.tolist()),
                np.int64,
                len(table_ids),
            )
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
        #: here), their distinct values and the tuples as ids of those
        #: (:func:`request_keys`); set by the prefilter.
        self.key_tuples: list[tuple[str, ...]] = []
        self.key_values: list[str] = []
        self.key_ids = np.empty((0, 0), dtype=_INDEX)
        self._key_postings: "KeyPostings | None" = None

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
        self.key_tuples = tuples
        self.key_values, self.key_ids = request_keys(tuples)
        if self.mode == "oracle":
            contained = self._contained(pair_at, pair_keys)
            pair_at, pair_keys = pair_at[contained], pair_keys[contained]
        #: Row ordinal and key id of every surviving pair, scan order.
        self.pair_rows = self.ordinals[pair_at]
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
        starts, stops = self.candidate_starts, self.candidate_stops
        #: Per candidate, candidate order: ``T``, the least ``j_k`` at which
        #: rule 2 cuts the table (see the module docstring).
        self.thresholds = stops - starts - (prefix[stops - 1, 0] - prefix[starts, 0])

    def _contained(self, pair_at, pair_keys):
        """Which of the pairs ``(pair_at, pair_keys)`` (every key entry of
        every posting, scan order) the posting's row contains: row filter
        ``oracle``, on the candidate tables' pairs (the others stay out)."""
        from ..core.joinability import key_matches

        contained = np.zeros(len(pair_at), dtype=bool)
        _, starts, stops = self._table_order
        firsts = np.searchsorted(pair_at, starts)
        lasts = np.searchsorted(pair_at, stops)
        kept = lasts > firsts
        if kept.any():
            select = _spans(firsts[kept], lasts[kept], len(pair_at))
            owner, _ = key_matches(
                self.ordinals[pair_at[select]],
                pair_keys[select],
                self.key_ids,
                self._postings(),
            )
            contained[np.arange(len(pair_at))[select][owner]] = True
        return contained

    def _postings(self) -> "KeyPostings":
        """The postings of the request's key values off :attr:`reader`,
        read at the first call (:func:`read_key_postings`)."""
        if self._key_postings is None:
            self._key_postings = read_key_postings(self.reader, self.key_values)
        return self._key_postings

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
            self.widths[kept] if len(kept) else np.empty(0, dtype=np.int64),
            firsts[kept],
            lasts[kept],
            self.pair_rows,
            self.pair_keys,
            self.key_ids,
            self._postings() if len(kept) else None,
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


def request_keys(tuples: Sequence[tuple[str, ...]]):
    """``(values, key_ids)``: the distinct non-missing values of the key
    tuples, first-seen order, and the tuples as a ``(keys, width)`` matrix
    of their positions there.  A missing key value's id is ``len(values)``,
    which no posting holds, so it matches nothing."""
    values = list(
        dict.fromkeys(
            value for key_tuple in tuples for value in key_tuple if value != MISSING
        )
    )
    ids = dict(zip(values, range(len(values))))
    missing = len(values)
    flat = [ids.get(value, missing) for key_tuple in tuples for value in key_tuple]
    return values, np.array(flat, dtype=_INDEX).reshape(
        len(tuples), len(tuples[0]) if tuples else 0
    )


def read_key_postings(reader, values: Sequence[str]) -> "KeyPostings":
    """The ``(row ordinal, column)`` postings of ``values`` (distinct) off
    ``reader``'s ``row_postings``, each tagged with its value's position in
    ``values``; the ordinals number ``reader.num_rows()`` rows."""
    from ..core.joinability import KeyPostings

    return KeyPostings(*reader.row_postings(values), reader.num_rows())


def verify_spans(
    widths,
    firsts,
    lasts,
    pair_rows,
    pair_keys,
    key_ids,
    postings: "KeyPostings | None",
):
    """Verify the pairs ``[firsts[t], lasts[t])`` of every table ``t``.

    ``widths`` are the tables' column counts; ``pair_rows`` /
    ``pair_keys`` are a request's pair arrays (row ordinal, row of
    ``key_ids``); the ranges are non-empty, ascending and disjoint, and may
    leave pairs out (the tables the sketch tier pruned), which are then
    never matched or charged.  The pairs in the ranges are verified against
    ``postings`` (the request's key values' postings, which may be ``None``
    without a range) in one :func:`~repro.core.joinability.verify_request`
    call.  Returns ``(prefix, tables, scores, mappings)``: row ``p`` of
    ``prefix`` holds the value comparisons, rows seen, verified pairs and
    rows verified among the pairs before ``p``, each table's pairs counted
    from the table's first pair; the rest is
    :func:`~repro.core.joinability.verify_request`'s answer per table.
    """
    # Imported here: repro.core imports the planner, which imports this.
    from ..core.joinability import verify_request

    total = len(pair_rows)
    prefix = np.zeros((total + 1, 4), dtype=np.int64)
    if not len(widths):
        return prefix, np.empty(0, dtype=_INDEX), np.empty(0, dtype=np.int64), []
    counts = lasts - firsts
    select = _spans(firsts, lasts, total)
    charges, best, scores, mappings = verify_request(
        widths,
        np.repeat(np.arange(len(widths)), counts),
        pair_rows[select],
        pair_keys[select],
        key_ids,
        postings,
    )
    if int(counts.sum()) < total:
        spread = np.zeros((total, 4), dtype=np.int64)
        spread[select] = charges
        charges = spread
    np.cumsum(charges, axis=0, out=prefix[1:])
    return prefix, best, scores, mappings


def _spans(firsts, lasts, total: int):
    """The positions of the ranges ``[firsts[t], lasts[t])`` (non-empty,
    ascending, disjoint) among ``total``: a slice when they cover all."""
    counts = lasts - firsts
    pairs = int(counts.sum())
    if pairs == total:
        return slice(None)
    offsets = np.cumsum(counts) - counts
    return np.arange(pairs) + np.repeat(firsts - offsets, counts)


def _bits(bitmap: bytes):
    """A one-byte-per-row bitmap as a ``uint8`` array (no copy)."""
    return np.frombuffer(bitmap, dtype=np.uint8)
