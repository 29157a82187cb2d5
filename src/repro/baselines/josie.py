"""A from-scratch JOSIE-style single-column joinable table search engine.

JOSIE (Zhu et al., SIGMOD 2019) finds the top-k *columns* (treated as sets)
with the largest value overlap with a query column, using an inverted index
from values to the sets containing them.  The paper uses JOSIE as the
state-of-the-art single-attribute baseline and adapts it to composite keys in
two ways (SCR-Josie and MCR-Josie, Section 7.1.1).

This module implements the core machinery those adaptations need:

* :class:`JosieIndex` — value -> list of column ids (a column id is a
  ``(table_id, column_index)`` pair).
* :class:`JosieSearch` — top-k overlap search with the standard optimisations
  of the exact top-k set-overlap family: candidates are accumulated from
  posting lists, and the scan terminates early once the remaining
  (unscanned) query values cannot lift any unseen candidate into the top-k.

The full JOSIE system additionally uses a cost model to interleave posting
list reads and candidate verifications; that refinement changes constants,
not the asymptotics or the result set, and is documented as a simplification
in DESIGN.md.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..datamodel import MISSING, TableCorpus

#: A column identifier: (table_id, column_index).
ColumnId = tuple[int, int]


@dataclass(frozen=True)
class JosieMatch:
    """One result of a JOSIE top-k search."""

    column: ColumnId
    overlap: int

    @property
    def table_id(self) -> int:
        """The table owning the matching column."""
        return self.column[0]



class JosieIndex:
    """Inverted index from cell values to the columns (sets) containing them."""

    def __init__(self) -> None:
        self._postings: dict[str, list[ColumnId]] = defaultdict(list)
        self.build_seconds: float = 0.0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, corpus: TableCorpus) -> "JosieIndex":
        """Build the set index for every column of every corpus table."""
        index = cls()
        started = time.perf_counter()
        for table in corpus:
            for column_index in range(table.num_columns):
                column_id: ColumnId = (table.table_id, column_index)
                for value in table.distinct_column_values(column_index):
                    index._postings[value].append(column_id)
        index.build_seconds = time.perf_counter() - started
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._postings)

    def num_posting_items(self) -> int:
        """Total number of (value, column) entries."""
        return sum(len(columns) for columns in self._postings.values())

    def columns_containing(self, value: str) -> list[ColumnId]:
        """Return the columns whose set contains ``value``."""
        return list(self._postings.get(value, ()))

    def posting_length(self, value: str) -> int:
        """Length of the posting list of ``value``."""
        return len(self._postings.get(value, ()))


class JosieSearch:
    """Exact top-k overlap search over a :class:`JosieIndex`."""

    def __init__(self, index: JosieIndex):
        self.index = index
        #: Number of posting entries read by the last search (instrumentation).
        self.last_posting_reads: int = 0

    def top_k_columns(
        self, query_values: Iterable[str], k: int
    ) -> list[JosieMatch]:
        """Return the ``k`` columns with the largest overlap with the query set.

        Query values are probed in increasing posting-list length (rare values
        first), which lets the search stop as soon as the number of unprobed
        values — an upper bound on the overlap of any column not seen yet —
        cannot beat the current k-th best overlap.
        """
        distinct = [v for v in dict.fromkeys(query_values) if v != MISSING]
        if k <= 0 or not distinct:
            return []
        ordered = sorted(distinct, key=lambda v: (self.index.posting_length(v), v))

        overlaps: dict[ColumnId, int] = defaultdict(int)
        self.last_posting_reads = 0
        kth_best = 0
        for probed, value in enumerate(ordered):
            remaining = len(ordered) - probed
            if len(overlaps) >= k and remaining <= kth_best:
                # No unseen column can reach the current top-k any more, and
                # already-seen columns can only be re-ranked among themselves
                # by the remaining probes; keep probing only if that could
                # still matter for the final ordering.
                candidates_in_flight = [
                    c for c, o in overlaps.items() if o + remaining > kth_best
                ]
                if not candidates_in_flight:
                    break
            for column in self.index.columns_containing(value):
                self.last_posting_reads += 1
                overlaps[column] += 1
            if len(overlaps) >= k:
                kth_best = heapq.nlargest(k, overlaps.values())[-1]

        ranked = sorted(
            overlaps.items(), key=lambda item: (-item[1], item[0])
        )
        return [
            JosieMatch(column=column, overlap=overlap)
            for column, overlap in ranked[:k]
            if overlap > 0
        ]

    def top_k_tables(
        self, query_values: Sequence[str], k: int
    ) -> list[tuple[int, int]]:
        """Return top-k (table_id, overlap) pairs, keeping each table's best column."""
        matches = self.top_k_columns(query_values, k=max(k * 4, k))
        best_per_table: dict[int, int] = {}
        for match in matches:
            current = best_per_table.get(match.table_id, 0)
            if match.overlap > current:
                best_per_table[match.table_id] = match.overlap
        ranked = sorted(best_per_table.items(), key=lambda item: (-item[1], item[0]))
        return ranked[:k]
