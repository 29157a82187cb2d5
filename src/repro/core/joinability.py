"""Joinability computation (Section 2, Eq. 1 and Eq. 2).

The joinability of a candidate table ``S`` w.r.t. a query table ``R`` with a
composite key ``X`` is the size of the intersection of the key projection of
``R`` with the projection of ``S`` onto the *best* column combination ``Y'``
of the same arity (Eq. 2).  Because the column mapping is unknown, a naive
evaluation enumerates all ``P(|S|, |X|)`` ordered column combinations.

Two implementations are provided:

* :func:`exact_joinability` — the brute-force reference that literally
  enumerates column permutations.  It is used by tests as ground truth and by
  the "Best"/"Ideal" oracles in the experiments.
* :func:`verify_table` — the verification step of every engine and baseline,
  one candidate table at a time: it rejects the surviving (row, key-tuple)
  pairs that are false positives by containment and finds the single column
  mapping supported by the largest number of *distinct* key tuples,
  enumerating value positions per hit row instead of global permutations.
  :func:`row_mappings`, :func:`row_contains_key` and
  :func:`joinability_from_matches` expose its steps for single rows.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations, product
from typing import Iterable, Sequence

from ..datamodel import MISSING, QueryTable, Table
from ..metrics import DiscoveryCounters


def _positions(row: Sequence[str], value: str) -> list[int]:
    """Columns of ``row`` holding ``value``, which ``row`` must contain."""
    found = [row.index(value)]
    for _ in range(row.count(value) - 1):
        found.append(row.index(value, found[-1] + 1))
    return found


def row_mappings(
    row: Sequence[str], key_values: Sequence[str]
) -> list[tuple[int, ...]]:
    """Enumerate all injective column assignments matching ``key_values`` in ``row``.

    Each returned tuple assigns, position by position, a distinct column index
    to every key value.  An empty list means the row does not contain the full
    composite key.  ``MISSING`` never matches.
    """
    for value in key_values:
        if value not in row:
            return []
    if MISSING in key_values:
        return []
    width = len(key_values)
    return [
        mapping
        for mapping in product(*[_positions(row, value) for value in key_values])
        if len(set(mapping)) == width
    ]


def row_contains_key(row: Sequence[str], key_values: Sequence[str]) -> bool:
    """Return whether ``row`` contains all ``key_values`` in distinct columns."""
    return bool(row_mappings(row, key_values))


def verify_table(
    rows: Sequence[Sequence[str]],
    surviving: Iterable[tuple[int, tuple[str, ...]]],
    counters: DiscoveryCounters,
) -> tuple[int, tuple[int, ...] | None, int]:
    """Exactly verify one candidate table's surviving pairs and score it.

    ``surviving`` yields ``(row_index, key_tuple)`` pairs that passed row
    filtering (line 21 of Algorithm 1).  Most of them are false positives
    that only need a "no", so a pair is rejected by C-level containment
    before anything is allocated; the injective column mappings of a hit
    are enumerated once, straight into the support map Eq. 2 is read from.
    Returns the joinability, its column mapping (``None`` without a match)
    and the number of verified pairs; ``counters`` is charged once per table.
    """
    support: dict[tuple[int, ...], set[tuple[str, ...]]] = defaultdict(set)
    seen_rows: set[int] = set()
    hit_rows: set[int] = set()
    verified = 0
    comparisons = 0
    for row_index, key_tuple in surviving:
        row = rows[row_index]
        width = len(key_tuple)
        comparisons += len(row) * width
        seen_rows.add(row_index)
        if width == 2:
            first, second = key_tuple
            if first not in row or second not in row or MISSING in key_tuple:
                continue
            others = _positions(row, second)
            mappings = [
                (column, other)
                for column in _positions(row, first)
                for other in others
                if column != other
            ]
        else:
            mappings = row_mappings(row, key_tuple)
        if not mappings:
            continue
        verified += 1
        hit_rows.add(row_index)
        for mapping in mappings:
            support[mapping].add(key_tuple)
    counters.value_comparisons += comparisons
    counters.rows_passed_filter += len(seen_rows)
    counters.true_positive_rows += len(hit_rows)
    counters.false_positive_rows += len(seen_rows) - len(hit_rows)
    # Eq. 2: the mapping most distinct key tuples agree on, largest on ties.
    joinability, mapping = max(
        ((len(key_tuples), mapping) for mapping, key_tuples in support.items()),
        default=(0, None),
    )
    return joinability, mapping, verified


def joinability_from_matches(
    matches: Iterable[tuple[Sequence[str], tuple[str, ...]]],
) -> tuple[int, tuple[int, ...] | None]:
    """Compute joinability from verified (row, key-tuple) matches.

    ``matches`` yields pairs of a candidate-table row and the distinct query
    key tuple it was matched against.  The result is the largest number of
    distinct key tuples supported by one single column mapping (Eq. 2),
    together with that mapping (or ``None`` when there are no matches).
    """
    matches = list(matches)
    joinability, mapping, _ = verify_table(
        [row for row, _ in matches],
        enumerate(key_tuple for _, key_tuple in matches),
        DiscoveryCounters(),
    )
    return joinability, mapping


def exact_joinability(
    query: QueryTable, table: Table
) -> tuple[int, tuple[int, ...] | None]:
    """Brute-force joinability (Eq. 2) by enumerating column permutations.

    Only feasible for tables with a modest number of columns; intended as the
    ground-truth oracle for tests and the "Best"/"Ideal" baselines.
    """
    key_tuples = query.key_tuples()
    if not key_tuples:
        return 0, None
    key_size = query.key_size
    if table.num_columns < key_size:
        return 0, None

    best_score = 0
    best_mapping: tuple[int, ...] | None = None
    for mapping in permutations(range(table.num_columns), key_size):
        projected = {
            tuple(row[column] for column in mapping)
            for row in table.rows
        }
        score = len(key_tuples & projected)
        if score > best_score:
            best_score = score
            best_mapping = mapping
    return best_score, best_mapping


def exact_joinability_score(query: QueryTable, table: Table) -> int:
    """Convenience wrapper returning only the joinability score."""
    score, _ = exact_joinability(query, table)
    return score


def top_k_by_exact_joinability(
    query: QueryTable, tables: Iterable[Table], k: int
) -> list[tuple[int, int]]:
    """Return the ground-truth top-k ``(table_id, joinability)`` pairs.

    Ties are broken by table id (ascending), at every rank.  The discovery
    engines report equal scores in the same order, but *which* of several
    tables tied at the k-th score they keep depends on evaluation order
    (decreasing posting count): rules 1 and 2 drop a later table once it can
    at best equal ``j_k``, whatever its id.  Compare scores, not ids, there.
    """
    scored = [
        (table.table_id, exact_joinability_score(query, table)) for table in tables
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [pair for pair in scored[:k] if pair[1] > 0]
