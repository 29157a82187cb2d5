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
* :func:`verify_request` — the same step as one numpy pass over the
  surviving pairs of *every* candidate table of a request, on their
  dictionary-encoded rows (:mod:`repro.datamodel.encoding`).  It returns
  per-pair charges (so any prefix of a table's pairs is charged by sums)
  and the Eq. 2 answer of every whole table;
  ``tests/helpers.legacy_verify_table`` is the oracle of both verifiers.
  Its comparison half, :func:`key_matches`, is also row filter
  ``oracle``'s containment test.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations, product
from typing import Iterable, Sequence

import numpy as _np

from ..datamodel import MISSING, QueryTable, Table
from ..metrics import DiscoveryCounters

#: :func:`verify_request`'s ``(table, mapping, key)`` codes must stay below.
_CODE_LIMIT = 1 << 62


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


def _run_starts(ordered):
    """Mask of the positions where a sorted array changes value."""
    starts = _np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _run_ends(ordered):
    """Mask of the last position of every run of a sorted, non-empty array."""
    ends = _np.empty(len(ordered), dtype=bool)
    ends[-1] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=ends[:-1])
    return ends


def _ordered_codes(digits, radices):
    """Code the tuples ``zip(*digits)`` as ``int64`` s that order like them.

    Digit ``i`` lies in ``[0, radices[i])``, the first most significant.  A
    code is the mixed-radix number of its digits; before a digit that could
    take it past ``_CODE_LIMIT`` the code so far is renumbered densely (the
    rank of its value among the distinct ones), which keeps the order and
    bounds it by the number of entries, so no input overflows.  Returns the
    codes and ``decode``, which turns codes of all digits but the last back
    into those digits.
    """
    np = _np
    code = digits[0]
    top = radices[0]
    #: Position -> the sorted distinct codes renumbered before that digit.
    renumbered = {}
    for position in range(1, len(digits)):
        radix = radices[position]
        if top * radix > _CODE_LIMIT:
            distinct = np.sort(code)
            distinct = distinct[_run_starts(distinct)]
            code = np.searchsorted(distinct, code)
            top = len(distinct)
            renumbered[position] = distinct
        code = code * radix + digits[position]
        top *= radix

    def decode(code):
        last = len(digits) - 1
        if last in renumbered:
            code = renumbered[last].take(code)
        decoded = []
        for position in range(last - 1, 0, -1):
            code, digit = np.divmod(code, radices[position])
            decoded.append(digit)
            if position in renumbered:
                code = renumbered[position].take(code)
        return [code, *reversed(decoded)]

    return code, decode


def key_matches(cells, pair_columns, pair_keys, keys):
    """Every injective column mapping of every pair's key tuple into its row.

    Pair ``i`` names its key tuple, row ``pair_keys[i]`` of ``keys.ids``,
    and its row: ``pair_columns[i]`` cells of ``cells`` (``int32`` ids over
    the dictionary of ``keys.ids``, the pairs' rows laid end to end).  One
    comparison per key position finds every cell holding that position's
    key value; a pair's mappings are the (ragged) product of its
    per-position hit columns, the non-injective ones dropped.  Returns
    ``(owner, chosen)``: one entry per mapping, in pair order — the pair it
    maps and, per key position, its column.  A pair owns a mapping exactly
    when its row contains its key tuple (:func:`row_contains_key`).
    """
    np = _np
    key_ids = keys.ids
    width = key_ids.shape[1]
    pairs = len(pair_columns)
    cell_starts = np.cumsum(pair_columns) - pair_columns
    # Beside ``cells``, the cell-length arrays are this map from a cell to
    # its pair and, per key position, the repeated key ids: all ``int32``;
    # and the comparison: ``bool``.
    cell_pairs = np.repeat(np.arange(pairs, dtype=np.int32), pair_columns)
    counts, columns = [], []
    for position in range(width):
        hit_cells = np.flatnonzero(
            cells == np.repeat(key_ids[:, position].take(pair_keys), pair_columns)
        )
        hit_pairs = cell_pairs.take(hit_cells)
        columns.append(hit_cells - cell_starts.take(hit_pairs))
        counts.append(np.bincount(hit_pairs, minlength=pairs))
    # Column choices per pair: 0 unless every key value is in the row.
    fan_out = counts[0]
    for count in counts[1:]:
        fan_out = fan_out * count

    # One entry per (pair, choice): ``rank`` numbers a pair's choices and is
    # decomposed, last position first, into one hit per key position.
    owner = np.repeat(np.arange(pairs), fan_out)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(fan_out) - fan_out, fan_out)
    chosen = [None] * width
    for position in range(width - 1, -1, -1):
        count = counts[position]
        first = np.cumsum(count) - count
        rank, nth = np.divmod(rank, count.take(owner))
        chosen[position] = columns[position].take(first.take(owner) + nth)
    if keys.repeated:
        # Two key positions only land in one column when they hold the same
        # value: drop the choices that are not injective.
        injective = np.ones(len(owner), dtype=bool)
        for position in range(1, width):
            for earlier in range(position):
                injective &= chosen[position] != chosen[earlier]
        owner = owner[injective]
        chosen = [column[injective] for column in chosen]
    return owner, chosen


def verify_request(cells, table_columns, pair_tables, pair_rows, pair_keys, keys):
    """:func:`verify_table` for many tables' surviving pairs, in one pass.

    Pair ``i`` (of at least one) names its table — ``pair_tables[i]``, an
    index into ``table_columns`` — its row in that table and its key tuple,
    row ``pair_keys[i]`` of ``keys.ids``; ``cells`` holds the pairs' rows as
    ``int32`` ids over the dictionary of ``keys.ids``, laid end to end in
    pair order (ragged: a row is as long as its table is wide).

    The pairs' mappings are :func:`key_matches`'; Eq. 2 is one sort of
    ``(table, mapping, key)`` codes for all tables at once.  Returns
    ``(charges, tables, scores, mappings)``:

    * ``charges`` — ``(pairs, 4)`` ``int64``: per pair, its value
      comparisons, whether it is the first pair of its ``(table, row)``,
      whether it verifies, and whether it is the first pair of its
      ``(table, row)`` that verifies.  Summed over a prefix of one table's
      pairs these are the ``value_comparisons``, ``rows_passed_filter``,
      verified pairs and ``true_positive_rows`` :func:`verify_table`
      returns and charges for that prefix;
    * ``tables`` / ``scores`` / ``mappings`` — every table (index) with a
      verified pair, and its joinability and column mapping over *all* of
      its pairs.
    """
    np = _np
    num_keys, width = keys.ids.shape
    pairs = len(pair_tables)
    pair_columns = table_columns.take(pair_tables)
    owner, chosen = key_matches(cells, pair_columns, pair_keys, keys)

    verified = np.zeros(pairs, dtype=bool)
    verified[owner] = True
    charges = np.zeros((pairs, 4), dtype=np.int64)
    charges[:, 0] = pair_columns * width
    charges[:, 2] = verified
    # A stable sort by (table, row) lines up every row's pairs in pair
    # order: the first of a run is the row's first pair, and the first
    # verified one its first hit.
    row_codes = pair_tables * (int(pair_rows.max()) + 1) + pair_rows
    by_row = np.argsort(row_codes, kind="stable")
    charges[by_row[_run_starts(row_codes.take(by_row))], 1] = 1
    by_row = by_row[verified.take(by_row)]
    charges[by_row[_run_starts(row_codes.take(by_row))], 3] = 1
    if not len(owner):
        return charges, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), []

    # Eq. 2: per table, the mapping most distinct key tuples agree on,
    # largest on ties.  One code per (table, mapping, key) orders like those
    # tuples, so one sort lines up every table's mappings.
    supported, decode = _ordered_codes(
        [pair_tables.take(owner), *chosen, pair_keys.take(owner)],
        [len(table_columns), *[int(table_columns.max())] * width, num_keys],
    )
    supported.sort()
    # One entry per distinct (table, mapping, key), sorted by mapping ...
    mapped = supported[_run_starts(supported)] // num_keys
    starts = _run_starts(mapped)
    # ... so the runs of equal mappings count their distinct keys.
    support = np.bincount(np.cumsum(starts) - 1)
    mapped = mapped[starts]
    tables, *columns = decode(mapped)
    ranked = np.lexsort((mapped, support, tables))
    best = ranked[_run_ends(tables.take(ranked))]
    return (
        charges,
        tables.take(best),
        support.take(best),
        list(zip(*(column.take(best).tolist() for column in columns))),
    )


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
