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


def _posting_count(query: QueryTable, column: str, index: InvertedIndex) -> int:
    """PL items the column's distinct non-missing values fetch."""
    return sum(index.posting_lengths(list(query.table.distinct_column_values(column))))


def select_worst_case(query: QueryTable, index: InvertedIndex | None = None) -> str:
    """Pick the column fetching the most PL items (hypothetical worst case)."""
    if index is None:
        raise DiscoveryError("the worst-case selector requires the inverted index")
    return max(
        query.key_columns,
        key=lambda column: (_posting_count(query, column, index), column),
    )


def select_best_case(query: QueryTable, index: InvertedIndex | None = None) -> str:
    """Pick the column fetching the fewest PL items (ground-truth best)."""
    if index is None:
        raise DiscoveryError("the best-case selector requires the inverted index")
    return min(
        query.key_columns,
        key=lambda column: (_posting_count(query, column, index), column),
    )


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
    (Section 7.5.4).
    """
    chosen = (
        get_column_selector(selector)(query, index)
        if isinstance(selector, str)
        else selector(query, index)
    )
    return _posting_count(query, chosen, index)
