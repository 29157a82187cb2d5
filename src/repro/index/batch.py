"""Request-level arrays: every candidate table grouped, prefiltered and cut
in one array pass.

The table-at-a-time path regroups the fetched postings into one
:class:`~repro.index.columnar.TableBlock` per candidate table and runs the
prefilter once per block.  With numpy, a request instead keeps its
:class:`~repro.index.columnar.FetchBlock` s and builds :class:`RequestArrays`
once; a candidate table is then a *span* ``range(start, stop)`` of positions
and prefiltering it is arithmetic on prefix sums.

**Table order.**  The blocks' ``table_ids`` columns are concatenated in fetch
order (probe order, then posting order) and argsorted *stably* by table id.
A stable sort keeps equal keys in input order, so the positions of one table
come out in probe order, then posting order — exactly the order
``group_into_table_blocks`` appends runs in, i.e. ``TableBlock`` order.

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

The arrays need the numpy kernel, row-filter mode ``superkey``, an index with
``fetch_batch`` and a packed super-key buffer on every fetched block; the
plan report names what was missing when the table-at-a-time path ran instead
(:attr:`~repro.plan.planner.PlanReport.table_path_reason`).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

import numpy as np

from ..datamodel.encoding import EncodedKeys
from .columnar import FetchBlock
from .kernels import KeyEntry

_INDEX = np.intp


class SurvivingPairs:
    """One table's surviving ``(row, key)`` pairs: a slice of the request's.

    Iterates as the ``(row_index, key_tuple)`` pairs the per-row prefilter
    produces, in the same order, so it can be handed to
    :func:`repro.core.joinability.verify_table` unchanged; the vector kernel
    reads the arrays instead.
    """

    __slots__ = ("rows", "keys", "tuples")

    def __init__(self, rows, keys, tuples: Sequence[tuple[str, ...]]):
        #: Row index of each pair.
        self.rows = rows
        #: Index into ``tuples`` of each pair's key tuple.
        self.keys = keys
        self.tuples = tuples

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, tuple[str, ...]]]:
        return zip(
            self.rows.tolist(), map(self.tuples.__getitem__, self.keys.tolist())
        )


class RequestArrays:
    """The fetched postings of one request, in candidate-table order."""

    def __init__(
        self,
        blocks: Sequence[FetchBlock],
        key_map: Mapping[str, Sequence[KeyEntry]],
        length_shift: int | None,
    ):
        """``blocks`` in probe order; ``key_map`` / ``length_shift`` (the
        XASH length-segment bit position, ``None`` without one) are what the
        prefilter runs with, on the first :meth:`cut`."""
        self.blocks = blocks
        self.key_map = key_map
        self.length_shift = length_shift
        #: Postings per block: as many as its packed key buffer holds.  The
        #: posting columns themselves may have grown since the fetch — a
        #: write buffer shares them with the snapshots in flight.
        self.lengths = lengths = [
            len(block.super_key_bytes) // block.key_width for block in blocks
        ]
        if blocks:
            # One C call per column: numpy copies out of the packed posting
            # columns and lets go of them before any other bytecode runs.  A
            # view held longer (``np.frombuffer``) would pin the ``array``
            # and make a concurrent ``add_posting`` raise ``BufferError``.
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

    def candidates(self, allowed: set[int] | None) -> list[tuple[int, range]]:
        """``(table id, span)`` per candidate, most postings first.

        ``allowed`` is the sketch tier's verdict (``None``: every table).
        The order — decreasing posting count, then table id — is line 5 of
        Algorithm 1 as ``sorted(key=(-len, id))`` computes it.
        """
        table_ids = self.table_ids
        starts, stops = self.bounds[:-1], self.bounds[1:]
        if allowed is not None:
            keep = np.isin(table_ids, np.fromiter(allowed, np.int64, len(allowed)))
            table_ids, starts, stops = table_ids[keep], starts[keep], stops[keep]
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
        """Run the super-key reject over every fetched posting, once.

        The per-``(value, key entry)`` bitmaps are the memoised
        :meth:`FetchBlock.query_coverage` ones; this scatters them into the
        pair arrays (table order, key-map entry order within a posting — the
        per-row loop's order) and the prefix sums :meth:`cut` reads.
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
                bitmaps = block.query_coverage(entries, length_shift, "numpy")
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
        np.cumsum(np.repeat(entry_counts, lengths)[order], out=prefix[1:, 1])
        np.cumsum(hits[order], out=prefix[1:, 2])
        np.cumsum(pairs_per_posting, out=prefix[1:, 3])
        return EncodedKeys(tuples)

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
            SurvivingPairs(
                self.pair_rows[first:last],
                self.pair_keys[first:last],
                keys.tuples,
            ),
        )


def _bits(bitmap: bytes):
    """A one-byte-per-row bitmap as a ``uint8`` array (no copy)."""
    return np.frombuffer(bitmap, dtype=np.uint8)
