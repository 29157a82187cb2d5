"""Request-level arrays: every candidate table grouped, prefiltered and cut
in one array pass.

Every request keeps its :class:`~repro.index.columnar.FetchBlock` s and
builds :class:`RequestArrays` once; a candidate table is then a *span*
``range(start, stop)`` of positions and prefiltering it is arithmetic on
prefix sums.

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

**Rule 2 as arithmetic.**  The per-row loop asks, *before* scanning row ``i``
of a table with ``L`` postings, whether ``L - i + matched(i) <= j_k``, where
``matched(i)`` counts the matching rows among the first ``i``.  That is
``unmatched(i) >= L - j_k``: the scan stops in front of the first row that
has ``deficit = L - j_k`` unmatched rows before it, which is the row after
the table's ``deficit``-th unmatched row — and only if that row exists,
because no question is asked after the last row.  With the positions of all
unmatched rows in one sorted array and the count of unmatched rows before
each position as a prefix sum, the table's ``deficit``-th unmatched row is a
single index lookup; rows checked, super-key checks, short-circuit hits and
the surviving pairs of the scanned prefix are prefix-sum differences.

**Verification as a replay.**  The only thing a table's verification needs
from the tables before it is ``j_k``, and ``j_k`` only decides where rule 2
cuts.  So the first verification of a request verifies the surviving pairs
of *every* candidate table in one array pass (:meth:`RequestArrays.verify`:
one gather of the tables' encoded rows, one
:func:`~repro.core.joinability.verify_request` call) and keeps, per pair,
what verifying it charges; the executor loop then replays the tables in
candidate order (:meth:`RequestVerdicts.replay`), charging prefix-sum
differences over exactly the pairs the cut kept.  The pairs of a table rule
1 prunes, of a rule-2 suffix, or behind a deadline break are verified and
never charged (:attr:`~repro.plan.planner.PlanReport.discarded_pairs`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator, Mapping, Sequence

import numpy as np

from ..datamodel.encoding import ENCODER, EncodedKeys
from .columnar import FetchBlock
from .kernels import KeyEntry

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..datamodel.table import Table
    from ..metrics import DiscoveryCounters

_INDEX = np.intp


class SurvivingPairs:
    """One table's surviving ``(row, key)`` pairs: a slice of the request's.

    Iterates as the ``(row_index, key_tuple)`` pairs the per-row prefilter
    produces, in the same order, so it can be handed to
    :func:`repro.core.joinability.verify_table` unchanged; the replay of the
    request's verification pass (:class:`RequestVerdicts`) reads the slice
    bounds instead.
    """

    __slots__ = ("arrays", "first", "last")

    def __init__(self, arrays: "RequestArrays", first: int, last: int):
        self.arrays = arrays
        #: The slice of the request's pair arrays.
        self.first = first
        self.last = last

    def __len__(self) -> int:
        return self.last - self.first

    def __iter__(self) -> Iterator[tuple[int, tuple[str, ...]]]:
        arrays = self.arrays
        return zip(
            arrays.pair_rows[self.first : self.last].tolist(),
            map(
                arrays.keys.tuples.__getitem__,
                arrays.pair_keys[self.first : self.last].tolist(),
            ),
        )


class RequestVerdicts:
    """Every candidate table of a request verified in one pass, replayed
    table by table in candidate order (:meth:`replay`)."""

    __slots__ = ("prefix", "scores", "pairs", "charged")

    def __init__(self, prefix, scores: dict, pairs: int):
        #: Row ``p``: value comparisons, ``(table, row)`` s seen, verified
        #: pairs and ``(table, row)`` s verified among the pairs before
        #: ``p`` — each table's pairs counted from the table's first pair.
        self.prefix = prefix
        #: ``table id -> (end of its pairs, joinability, mapping)`` for every
        #: table with a verified pair.
        self.scores = scores
        #: Pairs the pass verified: every candidate table's.
        self.pairs = pairs
        #: Pairs :meth:`replay` has charged so far.
        self.charged = 0

    def replay(
        self, table_id: int, surviving: SurvivingPairs, counters: "DiscoveryCounters"
    ) -> tuple[int, tuple[int, ...] | None, int]:
        """What :func:`~repro.core.joinability.verify_table` returns and
        charges for ``surviving``, the pairs of ``table_id`` up to its cut.

        A table cut short by rule 2 is scored 0: the cut came in front of a
        row ``i < L`` with ``matched(i) <= j_k - (L - i) < j_k``, and a
        prefix cannot score more than its matched postings (a mapping
        projects each row onto one key tuple), so the full heap rejects the
        prefix's own score just as it rejects 0.
        """
        first, last = surviving.first, surviving.last
        comparisons, rows, verified, hit_rows = (
            self.prefix[last] - self.prefix[first]
        ).tolist()
        counters.value_comparisons += comparisons
        counters.rows_passed_filter += rows
        counters.true_positive_rows += hit_rows
        counters.false_positive_rows += rows - hit_rows
        self.charged += last - first
        stop, joinability, mapping = self.scores.get(table_id, _UNSCORED)
        if stop != last:
            return 0, None, verified
        return joinability, mapping, verified


#: The score of a table without a verified pair.
_UNSCORED = (-1, 0, None)


class RequestArrays:
    """The fetched postings of one request, in candidate-table order."""

    def __init__(
        self,
        blocks: Sequence[FetchBlock],
        key_map: Mapping[str, Sequence[KeyEntry]],
        length_shift: int | None,
        mode: str = "superkey",
        get_table: "Callable[[int], Table] | None" = None,
    ):
        """``blocks`` in probe order; ``key_map``, ``length_shift`` (the
        XASH length-segment bit position, ``None`` without one) and ``mode``
        (the row filter) are what the prefilter runs with, on the first
        :meth:`cut`.  ``get_table`` maps a table id to the
        :class:`~repro.datamodel.table.Table` the postings point into (row
        filter ``oracle`` and :meth:`verify` read the tables' rows)."""
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
        #: First position of each table (ascending table id) and one past
        #: the last table's end.
        self.bounds = np.concatenate(
            ([0] if len(order) else [], edges, [len(order)])
        ).astype(_INDEX)
        self.table_ids = sorted_ids[self.bounds[:-1]]
        #: The request's key tuples (a pair names its key tuple by position
        #: here); ``None`` until the prefilter has run.
        self.keys: EncodedKeys | None = None
        #: Table ids, span starts and span stops of the candidates (every
        #: table until :meth:`candidates` says otherwise), in table order.
        self._candidate_spans = (self.table_ids, self.bounds[:-1], self.bounds[1:])
        self._verdicts: RequestVerdicts | None = None
        self._verified = False

    def candidates(self, allowed: set[int] | None) -> list[tuple[int, range]]:
        """``(table id, span)`` per candidate, most postings first.

        ``allowed`` is the sketch tier's verdict (``None``: every table).
        The order — decreasing posting count, then table id — is line 5 of
        Algorithm 1 as ``sorted(key=(-len, id))`` computes it.  The
        candidates are the tables :meth:`verify` verifies.
        """
        table_ids = self.table_ids
        starts, stops = self.bounds[:-1], self.bounds[1:]
        if allowed is not None:
            keep = np.isin(table_ids, np.fromiter(allowed, np.int64, len(allowed)))
            table_ids, starts, stops = table_ids[keep], starts[keep], stops[keep]
        self._candidate_spans = (table_ids, starts, stops)
        ranked = np.lexsort((table_ids, starts - stops))
        return list(
            zip(
                table_ids[ranked].tolist(),
                map(range, starts[ranked].tolist(), stops[ranked].tolist()),
            )
        )

    # ------------------------------------------------------------------
    # Prefilter
    # ------------------------------------------------------------------
    def _prefilter(self) -> EncodedKeys:
        """Run the row filter over every fetched posting, once.

        The per-``(value, key entry)`` bitmaps are the memoised
        :meth:`FetchBlock.query_coverage` ones (all ones without a key
        test); this scatters them into the pair arrays (table order, key-map
        entry order within a posting — the per-row loop's order), keeps the
        contained pairs under row filter ``oracle``, and lays out the prefix
        sums :meth:`cut` reads.
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
        return keys

    def _contained(self, pair_at, pair_keys, keys: EncodedKeys):
        """Which of the pairs ``(pair_at, pair_keys)`` (every key entry of
        every posting, scan order) the posting's row contains: row filter
        ``oracle``, on the candidate tables' pairs (the others stay out)."""
        from ..core.joinability import key_matches

        contained = np.zeros(len(pair_at), dtype=bool)
        table_ids, starts, stops = self._candidate_spans
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

    def cut(
        self, span: range, min_joinability: int | None
    ) -> tuple[int, int, int, bool, SurvivingPairs]:
        """Prefilter one table: apply rule 2, return what the scan charges.

        ``(rows_checked, superkey_checks, short_circuit_hits, abandoned,
        surviving)`` — what the per-row loop produces for the same block
        (``min_joinability`` is ``None`` while rule 2 is not armed).  The
        first call of a request runs the prefilter for all of its tables.
        """
        keys = self.keys
        if keys is None:
            keys = self.keys = self._prefilter()
        start, stop = span.start, span.stop
        abandoned = False
        unmatched, checks, hits, first = self.prefix[start].tolist()
        if min_joinability is not None:
            deficit = stop - start - min_joinability
            if deficit <= 0:
                abandoned = stop > start
                stop = start
            else:
                nth = unmatched + deficit - 1
                if nth < len(self.unmatched_at):
                    after = int(self.unmatched_at[nth]) + 1
                    if after < stop:
                        stop, abandoned = after, True
        _, checks_end, hits_end, last = self.prefix[stop].tolist()
        return (
            stop - start,
            checks_end - checks,
            hits_end - hits,
            abandoned,
            SurvivingPairs(self, first, last),
        )

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def verify(self) -> RequestVerdicts | None:
        """Verify the surviving pairs of every candidate table, once.

        The first call of a request (after the prefilter) runs the pass;
        every call returns its :class:`RequestVerdicts`, or ``None`` when
        the request's Eq. 2 codes could overflow ``int64`` — its tables are
        then verified one at a time by
        :func:`~repro.core.joinability.verify_table`.
        """
        if not self._verified:
            self._verified = True
            table_ids, starts, stops = self._candidate_spans
            pair_ends = self.prefix[:, 3]
            firsts, lasts = pair_ends[starts], pair_ends[stops]
            kept = lasts > firsts
            table_ids = table_ids[kept].tolist()
            self._verdicts = verify_tables(
                table_ids,
                list(map(self.get_table, table_ids)),
                firsts[kept],
                lasts[kept],
                self.pair_rows,
                self.pair_keys,
                self.keys,
            )
        return self._verdicts


def verify_tables(
    table_ids: Sequence[int],
    tables: Sequence["Table"],
    firsts,
    lasts,
    pair_rows,
    pair_keys,
    keys: EncodedKeys,
) -> RequestVerdicts | None:
    """Verify the pairs ``[firsts[t], lasts[t])`` of every table ``t``.

    ``pair_rows`` / ``pair_keys`` are a request's pair arrays (row index,
    row of ``keys.ids``); the ranges are non-empty, ascending and disjoint,
    and may leave pairs out (the tables the sketch tier pruned), which are
    then never encoded, compared or charged.  The tables' encoded rows are
    gathered into one ragged cell array, in one dictionary generation, for
    one :func:`~repro.core.joinability.verify_request` call.  Returns
    ``None`` when the Eq. 2 codes could overflow ``int64``.
    """
    # Imported here: repro.core imports the planner, which imports this.
    from ..core.joinability import request_codes_fit, verify_request

    total = len(pair_rows)
    prefix = np.zeros((total + 1, 4), dtype=np.int64)
    if not len(tables):
        return RequestVerdicts(prefix, {}, 0)
    counts = lasts - firsts
    pairs = int(counts.sum())
    columns = np.fromiter(
        (table.num_columns for table in tables), np.int64, len(tables)
    )
    width = len(keys.tuples[0])
    if not request_codes_fit(columns.tolist(), width, len(keys.tuples)):
        return None
    select, rows, cells = _gather(tables, firsts, lasts, pair_rows, keys)
    charges, best, scores, mappings = verify_request(
        cells,
        columns,
        np.repeat(np.arange(len(tables)), counts),
        rows,
        pair_keys[select],
        keys,
    )
    if pairs < total:
        spread = np.zeros((total, 4), dtype=np.int64)
        spread[select] = charges
        charges = spread
    np.cumsum(charges, axis=0, out=prefix[1:])
    return RequestVerdicts(
        prefix,
        dict(
            zip(
                np.take(table_ids, best).tolist(),
                zip(lasts.take(best).tolist(), scores.tolist(), mappings),
            )
        ),
        pairs,
    )


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
