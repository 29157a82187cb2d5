"""Initial query-column selection heuristics (Sections 6.1 and 7.5.4).

MATE probes the single-attribute index with exactly one of the composite-key
columns; the choice determines how many PL items have to be fetched and
filtered.  The paper's default is the *cardinality* heuristic (pick the key
column with the fewest distinct values) and Section 7.5.4 compares it against
four alternatives, all implemented here:

* ``cardinality``   — fewest distinct values (MATE's default),
* ``column_order``  — simply the first key column of the query table,
* ``longest_string``— the column containing the longest cell value (TLS),
* ``worst_case``    — the column whose values fetch the *most* PL items
  (upper bound; needs the index),
* ``best_case``     — the column whose values fetch the *fewest* PL items
  (ground-truth lower bound; needs the index).

The two index-backed selectors count exactly what a run seeded from a column
fetches: the postings of that column's values in the complete key tuples
(:func:`probed_postings`), which the planner's ``cost`` mode ranks by too.
"""

from __future__ import annotations

from typing import Protocol

from ..datamodel import MISSING, QueryTable
from ..exceptions import DiscoveryError
from ..index import InvertedIndex


class ColumnSelector(Protocol):
    """Callable picking the initial query column for a discovery run."""

    def __call__(self, query: QueryTable, index: InvertedIndex | None = None) -> str:
        ...


def select_by_cardinality(
    query: QueryTable, index: InvertedIndex | None = None
) -> str:
    """Pick the key column with the lowest cardinality (MATE's heuristic)."""
    cardinalities = query.column_cardinalities()
    return min(query.key_columns, key=lambda column: (cardinalities[column], column))


def select_by_column_order(
    query: QueryTable, index: InvertedIndex | None = None
) -> str:
    """Pick the first key column in table order ("Column order" baseline)."""
    ordered = sorted(
        query.key_columns, key=lambda column: query.table.column_index(column)
    )
    return ordered[0]


def select_by_longest_string(
    query: QueryTable, index: InvertedIndex | None = None
) -> str:
    """Pick the column containing the longest cell value (the TLS baseline)."""

    def longest_value(column: str) -> int:
        values = query.table.column_values(column)
        return max((len(v) for v in values if v != MISSING), default=0)

    return max(query.key_columns, key=lambda column: (longest_value(column), column))


def complete_key_tuples(query: QueryTable) -> list[tuple[str, ...]]:
    """The query's distinct composite-key tuples without missing values,
    sorted: the tuples the initialization step probes (Algorithm 1, lines
    3-6).  Every count below reads them, so a count and the run it
    predicts never disagree on what is probed."""
    return [
        key_tuple
        for key_tuple in sorted(query.key_tuples())
        if MISSING not in key_tuple
    ]


def probe_values(key_tuples: list[tuple[str, ...]], position: int) -> list[str]:
    """The distinct values at ``position`` of ``key_tuples``, first seen
    first: what seeding the run from that key column fetches, in order."""
    return list(dict.fromkeys(key_tuple[position] for key_tuple in key_tuples))


def probed_postings(query: QueryTable, index: InvertedIndex) -> dict[str, tuple[int, int]]:
    """Per key column, the number of values seeding the run from it probes
    and the PL items they fetch, counted exactly off the index: one batched
    ``posting_lengths`` per column, no posting read."""
    key_tuples = complete_key_tuples(query)
    counts = {}
    for position, column in enumerate(query.key_columns):
        values = probe_values(key_tuples, position)
        counts[column] = (len(values), sum(index.posting_lengths(values)))
    return counts


def select_worst_case(query: QueryTable, index: InvertedIndex | None = None) -> str:
    """Pick the column fetching the most PL items (hypothetical worst case)."""
    if index is None:
        raise DiscoveryError("the worst-case selector requires the inverted index")
    counts = probed_postings(query, index)
    return max(query.key_columns, key=lambda column: (counts[column][1], column))


def select_best_case(query: QueryTable, index: InvertedIndex | None = None) -> str:
    """Pick the column fetching the fewest PL items (ground-truth best)."""
    if index is None:
        raise DiscoveryError("the best-case selector requires the inverted index")
    counts = probed_postings(query, index)
    return min(query.key_columns, key=lambda column: (counts[column][1], column))


#: Registry of the selection strategies compared in Section 7.5.4.
COLUMN_SELECTORS: dict[str, ColumnSelector] = {
    "cardinality": select_by_cardinality,
    "column_order": select_by_column_order,
    "longest_string": select_by_longest_string,
    "worst_case": select_worst_case,
    "best_case": select_best_case,
}


def get_column_selector(name: str) -> ColumnSelector:
    """Return the selector registered under ``name``."""
    try:
        return COLUMN_SELECTORS[name]
    except KeyError as exc:
        raise DiscoveryError(
            f"unknown column selector {name!r}; available: {sorted(COLUMN_SELECTORS)}"
        ) from exc


def fetched_pl_count(
    query: QueryTable, index: InvertedIndex, selector: ColumnSelector | str
) -> int:
    """Number of PL items the given selector's choice would fetch.

    This is the measurement reported in the initial-column experiment
    (Section 7.5.4): the postings of the values the run seeded from that
    column probes, which is what it fetches.
    """
    chosen = (
        get_column_selector(selector)(query, index)
        if isinstance(selector, str)
        else selector(query, index)
    )
    return probed_postings(query, index)[chosen][1]
