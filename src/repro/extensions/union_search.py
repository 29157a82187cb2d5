"""Table union search on top of the MATE index (extension, paper §1).

The paper notes that the super-key/index machinery "could be applied in the
same spirit" to table union search (finding tables that can be stacked under a
query table because their columns draw from the same domains).  This module
implements a simple unionability search in the style of Nargesian et al.'s
table union search, reusing the single-attribute inverted index:

* for every query column, the distinct values are probed against the index,
  producing per-candidate-column overlap counts;
* a candidate table's unionability is the best one-to-one alignment between
  query columns and candidate columns, scored by the sum of normalised value
  overlaps (greedy assignment — exact for the small column counts of web
  tables and never above the true optimum by more than the usual greedy gap);
* the top-k tables by unionability are returned.

On large corpora the per-value posting probes dominate, so the search can
run behind the approximate candidate tier of :mod:`repro.sketch`: given a
:class:`~repro.sketch.SketchIndex` and enabled
:class:`~repro.sketch.SketchOptions`, every query column is LSH-probed
first and only tables whose best column containment clears the threshold
are probed exactly and aligned.

This is an *extension*, not a paper experiment.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..datamodel import QueryTable, Table, TableCorpus
from ..exceptions import DiscoveryError
from ..index import InvertedIndex
from ..sketch import DEFAULT_SKETCH_OPTIONS, SketchIndex, SketchOptions


@dataclass(frozen=True)
class UnionCandidate:
    """One candidate table for union search."""

    table_id: int
    unionability: float
    #: For each query column index, the aligned candidate column (or None).
    alignment: tuple[tuple[int, int | None], ...]


class UnionSearch:
    """Top-k unionable table search reusing the MATE inverted index.

    ``sketch_index`` / ``sketch_options`` optionally engage the MinHash-LSH
    candidate tier: with enabled options, tables are pre-pruned per query
    column before any exact posting probe (disabled defaults keep the
    search exhaustive and byte-identical to earlier releases).
    """

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        sketch_index: SketchIndex | None = None,
        sketch_options: SketchOptions | None = None,
    ):
        self.corpus = corpus
        self.index = index
        self.sketch_index = sketch_index
        self.sketch_options = sketch_options or DEFAULT_SKETCH_OPTIONS

    def top_k_unionable(
        self, query: QueryTable | Table, k: int = 10, columns: list[str] | None = None
    ) -> list[UnionCandidate]:
        """Return the top-k tables unionable with the query columns.

        ``columns`` defaults to every column of the query table (for a
        :class:`QueryTable` input, its key columns).
        """
        if k <= 0:
            raise DiscoveryError(f"k must be positive, got {k}")
        if isinstance(query, QueryTable):
            table = query.table
            columns = columns or query.key_columns
        else:
            table = query
            columns = columns or list(table.columns)

        allowed = self._sketch_allowed_tables(table, columns)

        # overlap[(candidate table, query position, candidate column)] = count
        overlap: dict[tuple[int, int, int], int] = defaultdict(int)
        column_cardinalities = []
        for query_position, column in enumerate(columns):
            values = table.distinct_column_values(column)
            column_cardinalities.append(max(len(values), 1))
            seen: set[tuple[int, int, str]] = set()
            for block in self.index.fetch_batch(sorted(values)):
                for table_id, column_index in zip(
                    block.table_ids, block.column_indexes
                ):
                    if allowed is not None and table_id not in allowed:
                        continue
                    key = (table_id, column_index, block.value)
                    if key in seen:
                        continue
                    seen.add(key)
                    overlap[(table_id, query_position, column_index)] += 1

        per_table: dict[int, dict[tuple[int, int], int]] = defaultdict(dict)
        for (table_id, query_position, column_index), count in overlap.items():
            per_table[table_id][(query_position, column_index)] = count

        candidates: list[UnionCandidate] = []
        for table_id, cells in per_table.items():
            if table_id == table.table_id:
                continue
            score, alignment = self._align(cells, len(columns), column_cardinalities)
            if score > 0:
                candidates.append(
                    UnionCandidate(
                        table_id=table_id,
                        unionability=score,
                        alignment=tuple(alignment),
                    )
                )
        candidates.sort(key=lambda c: (-c.unionability, c.table_id))
        return candidates[:k]

    def _sketch_allowed_tables(
        self, table: Table, columns: list[str]
    ) -> set[int] | None:
        """LSH-prune the table universe (``None`` = exhaustive, no pruning).

        The allowed sets of the individual query columns are unioned so a
        table unionable along *any* column axis survives the prune.
        """
        if self.sketch_index is None or not self.sketch_options.enabled:
            return None
        allowed: set[int] = set()
        for column in columns:
            values = table.distinct_column_values(column)
            if not values:
                continue
            scored = self.sketch_index.query(
                values,
                threshold=self.sketch_options.threshold,
                max_candidates=self.sketch_options.max_candidates,
            )
            allowed.update(table_id for table_id, _ in scored)
        return allowed

    @staticmethod
    def _align(
        cells: dict[tuple[int, int], int],
        num_query_columns: int,
        column_cardinalities: list[int],
    ) -> tuple[float, list[tuple[int, int | None]]]:
        """Greedy one-to-one alignment of query columns to candidate columns."""
        entries = sorted(
            (
                (count / column_cardinalities[query_position], query_position, column_index)
                for (query_position, column_index), count in cells.items()
            ),
            key=lambda entry: (-entry[0], entry[1], entry[2]),
        )
        used_query: set[int] = set()
        used_candidate: set[int] = set()
        alignment: dict[int, int] = {}
        score = 0.0
        for normalised, query_position, column_index in entries:
            if query_position in used_query or column_index in used_candidate:
                continue
            used_query.add(query_position)
            used_candidate.add(column_index)
            alignment[query_position] = column_index
            score += normalised
        full_alignment = [
            (query_position, alignment.get(query_position))
            for query_position in range(num_query_columns)
        ]
        return score, full_alignment
