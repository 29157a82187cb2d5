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
* :func:`verify_encoded` — the same step as a numpy kernel over a table's
  dictionary-encoded id matrix (:mod:`repro.datamodel.encoding`), for the
  tables of a batch-path request that keep
  :data:`VECTOR_VERIFY_MIN_PAIRS` pairs or more.  Same answer, same counter
  charges; ``tests/helpers.legacy_verify_table`` is the oracle of both.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations, product
from typing import Iterable, Sequence

import numpy as _np

from ..datamodel import MISSING, QueryTable, Table
from ..datamodel.encoding import EncodedKeys
from ..metrics import DiscoveryCounters

#: Surviving pairs from which a table is verified by :func:`verify_encoded`
#: instead of the :func:`verify_table` loop.  The kernel costs ~50 us in numpy
#: calls before it touches data and ~0.2 us per pair after, the loop ~1.6 us
#: per pair; measured inside requests of both benchmark corpora the two cross
#: at about 40 pairs (docs/ARCHITECTURE.md, "Batch execution").
VECTOR_VERIFY_MIN_PAIRS = 40

#: Mapping codes are ``column**width * keys`` at most and must fit ``int64``.
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


def _count_distinct(indexes, bound: int) -> int:
    """How many distinct values ``indexes`` (all below ``bound``) holds."""
    present = _np.zeros(bound, dtype=bool)
    present[indexes] = True
    return int(_np.count_nonzero(present))


def _run_starts(ordered):
    """Mask of the positions where a sorted, non-empty array changes value."""
    starts = _np.empty(len(ordered), dtype=bool)
    starts[0] = True
    _np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def verify_encoded(
    matrix,
    pair_rows,
    pair_keys,
    keys: EncodedKeys,
    counters: DiscoveryCounters,
) -> tuple[int, tuple[int, ...] | None, int] | None:
    """:func:`verify_table` over dense value ids, all pairs at once.

    ``matrix`` is the table's ``(rows, columns)`` id matrix, ``keys.ids`` the
    request's ``(keys, width)`` one over the same dictionary;
    ``pair_rows[i]`` / ``pair_keys[i]`` index them for surviving pair ``i``.
    One comparison finds every column holding a pair's key values, a pair's
    injective column mappings are the (ragged) product of its per-position
    hit columns, and Eq. 2 is a count of distinct ``(mapping, key)`` codes.
    Returns ``None`` (nothing charged) when those codes could overflow —
    the caller runs the loop instead.
    """
    np = _np
    key_ids = keys.ids
    num_rows, num_columns = matrix.shape
    num_keys, width = key_ids.shape
    if num_columns**width * num_keys >= _CODE_LIMIT:
        return None
    pairs = len(pair_rows)
    cells = matrix.take(pair_rows, axis=0)
    wanted = key_ids.take(pair_keys, axis=0)
    # A hit is a (pair, key position, column) whose cell holds the key
    # value; flat, in that order, so slot = pair * width + position.
    slot, column = np.divmod(
        np.flatnonzero(cells[:, None, :] == wanted[:, :, None]), num_columns
    )
    hits_per_slot = np.bincount(slot, minlength=pairs * width)
    # Column choices per pair: 0 unless every key value is in the row.
    fan_out = hits_per_slot[0::width]
    for position in range(1, width):
        fan_out = fan_out * hits_per_slot[position::width]
    ends = np.cumsum(fan_out)

    seen = _count_distinct(pair_rows, num_rows)
    counters.value_comparisons += num_columns * width * pairs
    counters.rows_passed_filter += seen

    # One entry per (pair, choice): ``rank`` numbers a pair's choices and is
    # decomposed, last position first, into one hit per key position.
    owner = np.repeat(np.arange(pairs), fan_out)
    rank = np.arange(len(owner)) - np.repeat(ends - fan_out, fan_out)
    first_hit = np.cumsum(hits_per_slot) - hits_per_slot
    hits_of = hits_per_slot.reshape(pairs, width).take(owner, axis=0)
    first_of = first_hit.reshape(pairs, width).take(owner, axis=0)
    chosen = []
    for position in range(width - 1, -1, -1):
        rank, nth = np.divmod(rank, hits_of[:, position])
        chosen.append(column.take(first_of[:, position] + nth))
    chosen.reverse()
    if keys.repeated:
        # Two key positions only land in one column when they hold the same
        # value: drop the choices that are not injective.
        injective = np.ones(len(owner), dtype=bool)
        for position in range(1, width):
            for earlier in range(position):
                injective &= chosen[position] != chosen[earlier]
        owner = owner[injective]
        chosen = [columns[injective] for columns in chosen]

    hit = _count_distinct(pair_rows.take(owner), num_rows)
    counters.true_positive_rows += hit
    counters.false_positive_rows += seen - hit
    if not len(owner):
        return 0, None, 0

    # Eq. 2: the mapping most distinct key tuples agree on, largest on ties.
    # Codes order like the mapping tuples (first column most significant).
    code = chosen[0]
    for columns in chosen[1:]:
        code = code * num_columns + columns
    supported = np.sort(code * num_keys + pair_keys.take(owner))
    # One entry per distinct (mapping, key), still sorted by mapping ...
    mappings = supported[_run_starts(supported)] // num_keys
    # ... numbered by mapping from 1, so bincount is the support per mapping.
    run = np.cumsum(_run_starts(mappings))
    support = np.bincount(run)
    best = len(support) - 1 - int(np.argmax(support[::-1]))
    code = int(mappings[np.searchsorted(run, best)])
    mapping = []
    for _ in range(width):
        code, position_column = divmod(code, num_columns)
        mapping.append(position_column)
    return (
        int(support[best]),
        tuple(reversed(mapping)),
        _count_distinct(owner, pairs),
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
