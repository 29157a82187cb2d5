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
  surviving pairs of *every* candidate table of a request.  It reads no
  row: the index already says which ``(row, column)`` holds each value
  (the posting lists of Eq. 4), so a pair's row contains its key tuple
  exactly when every key value has a posting in that row, at distinct
  columns.  Its matching half, :func:`key_matches`, looks the pairs' rows
  up in the postings of the request's key values (:class:`KeyPostings`),
  and is also row filter ``oracle``'s containment test.  It returns
  per-pair charges (so any prefix of a table's pairs is charged by sums)
  and the Eq. 2 answer of every whole table;
  ``tests/helpers.legacy_verify_table`` is the oracle of both verifiers.

The read costs what the key values' posting lists weigh, not what the
pairs' rows hold: a request whose key values are rare reads far fewer
postings than its pairs' rows have cells.  The regime where it costs more
is a key value whose posting list far outweighs the cells of the pairs'
rows (a value in most rows of a large index, probed with few pairs): the
whole list is read to keep the few postings on the pairs' rows.  The
matching itself stays linear in the postings read plus the pairs' key
lookups whatever the query's size: its dense arrays are bounded by those
(:data:`_DENSE_PER_ITEM` entries per item), and past that bound — a query
of many rows and key values, or an index of many more rows than the
request reads postings — it sorts and searches instead, a logarithmic
factor slower.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import permutations, product
from typing import Any, Iterable, NamedTuple, Sequence

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


class KeyPostings(NamedTuple):
    """The postings of a request's distinct key values, as an index's
    ``row_postings`` read hands them out (:func:`repro.index.batch.read_key_postings`).

    Posting ``i`` holds key value ``values[i]`` (an id of the request's key
    value list) at column ``columns[i]`` of row ``rows[i]``, an ordinal
    below ``num_rows`` in the numbering of the index the request fetched
    from.  A value's postings in one row are adjacent.
    """

    values: Any
    rows: Any
    columns: Any
    num_rows: int


#: The dense arrays of :func:`key_matches` (a mark per row ordinal, a count
#: and a first hit per ``(row, value)``) may hold this many entries per
#: posting read and per key lookup; past that it sorts and searches.
_DENSE_PER_ITEM = 16


def _row_slots(pair_rows, posting_rows, num_rows: int, budget: int):
    """Number the pairs' distinct rows densely, in row order (a row *slot*).

    Returns the number of slots, each pair's slot, which postings land on a
    pair's row (``kept``) and their slots.  A dense mark over the row
    ordinals when there are at most ``budget`` of them, else a sort of the
    pairs' rows and binary searches into it.  ``pair_rows`` is not empty.
    """
    np = _np
    if num_rows <= budget:
        marked = np.zeros(num_rows, dtype=bool)
        marked[pair_rows] = True
        rows = np.flatnonzero(marked)
        slot_of = np.empty(num_rows, dtype=np.intp)
        slot_of[rows] = np.arange(len(rows))
        kept = np.flatnonzero(marked[posting_rows])
        return (
            len(rows),
            slot_of.take(pair_rows),
            kept,
            slot_of.take(posting_rows[kept]),
        )
    rows = np.sort(pair_rows)
    rows = rows[_run_starts(rows)]
    at = np.searchsorted(rows, posting_rows)
    np.minimum(at, len(rows) - 1, out=at)
    kept = np.flatnonzero(rows.take(at) == posting_rows)
    return len(rows), np.searchsorted(rows, pair_rows), kept, at[kept]


def _code_runs(codes, columns, size: int, budget: int):
    """``(columns, find)``: the hits of ``codes`` (below ``size``, each
    code's entries adjacent and in column order), and ``find(code)`` —
    the ``(count, first)`` of the entries holding each of the codes
    ``code``, ``first`` a position in the returned ``columns``.

    When ``size`` is within ``budget``, one ``bincount`` and one scatter of
    the runs' starts fill a dense table read by ``take``; else a stable
    sort lines the runs up and a binary search finds them.
    """
    np = _np
    if size <= budget:
        count = np.bincount(codes, minlength=size)
        first = np.empty(size, dtype=np.intp)  # read where count > 0 only
        starts = np.flatnonzero(_run_starts(codes))
        first[codes.take(starts)] = starts
        return columns, lambda code: (count.take(code), first.take(code))
    order = np.argsort(codes, kind="stable")
    codes = codes.take(order)
    bounds = np.append(np.flatnonzero(_run_starts(codes)), len(codes))
    # ``size`` ends the distinct codes: above every code looked up, it
    # holds no entry, and every search lands inside the array.
    distinct = np.append(codes.take(bounds[:-1]), size)
    run_count = np.append(np.diff(bounds), 0)

    def find(code):
        at = np.searchsorted(distinct, code)
        return (
            np.where(distinct.take(at) == code, run_count.take(at), 0),
            bounds.take(at),
        )

    return columns.take(order), find


def key_matches(pair_rows, pair_keys, key_ids, postings: KeyPostings):
    """Every injective column mapping of every pair's key tuple into its row.

    Pair ``i`` (of at least one) names its row, the ordinal
    ``pair_rows[i]``, and its key tuple, row ``pair_keys[i]`` of
    ``key_ids`` (``(keys, width)`` ids of the key values; a missing value's
    id is held by no posting).  The pairs' rows are matched against
    ``postings``, in four array passes:

    1. the pairs' distinct rows are numbered densely (a row *slot*);
    2. the key-value postings on a pair's row are kept;
    3. a ``(row, value)``'s kept postings are adjacent, so one ``bincount``
       of ``slot * stride + value`` codes counts them, and one scatter of
       the code runs' starts records where the first one is — a
       ``(row slot, value)`` table, read once per pair and key position;
    4. a pair's mappings are the (ragged) product of its per-position
       columns, the non-injective ones dropped.

    Memory and time are linear in the postings read plus the pairs' key
    lookups: steps 1 and 3 use dense arrays (over the row ordinals, and
    over the ``(row slot, value)`` table) only while those hold at most
    ``_DENSE_PER_ITEM`` entries per posting and lookup, and sort and
    search otherwise (a query of many rows and key values over a large
    lake) — the same answer, a logarithmic factor slower.

    Returns ``(owner, chosen)``: one entry per mapping, in pair order — the
    pair it maps and, per key position, its column.  A pair owns a mapping
    exactly when its row contains its key tuple (:func:`row_contains_key`).
    """
    np = _np
    pairs = len(pair_rows)
    width = key_ids.shape[1]
    budget = _DENSE_PER_ITEM * (len(postings.rows) + pairs * width)
    # 1-2. Slot the pairs' rows; keep the postings on one of them.
    slots, pair_slots, kept, kept_slots = _row_slots(
        pair_rows, postings.rows, postings.num_rows, budget
    )
    stride = int(key_ids.max()) + 1
    # 3. Count and first hit of every (row, value).
    columns, find = _code_runs(
        kept_slots * stride + postings.values[kept],
        postings.columns[kept],
        slots * stride,
        budget,
    )
    pair_codes = pair_slots * stride
    counts, firsts = [], []
    for position in range(width):
        count, first = find(pair_codes + key_ids[:, position].take(pair_keys))
        counts.append(count)
        firsts.append(first)
    # 4. Column choices per pair: 0 unless every key value is in the row.
    fan_out = counts[0]
    for hits in counts[1:]:
        fan_out = fan_out * hits

    # One entry per (pair, choice): ``rank`` numbers a pair's choices and is
    # decomposed, last position first, into one hit per key position.
    owner = np.repeat(np.arange(pairs), fan_out)
    rank = np.arange(len(owner)) - np.repeat(np.cumsum(fan_out) - fan_out, fan_out)
    chosen = [None] * width
    for position in range(width - 1, -1, -1):
        rank, nth = np.divmod(rank, counts[position].take(owner))
        chosen[position] = columns.take(firsts[position].take(owner) + nth)
    repeated = [
        (position, earlier)
        for position in range(1, width)
        for earlier in range(position)
        if (key_ids[:, position] == key_ids[:, earlier]).any()
    ]
    if repeated:
        # Two key positions only land in one column when they hold the same
        # value: drop the choices that are not injective.
        injective = np.ones(len(owner), dtype=bool)
        for position, earlier in repeated:
            injective &= chosen[position] != chosen[earlier]
        owner = owner[injective]
        chosen = [column[injective] for column in chosen]
    return owner, chosen


def verify_request(table_columns, pair_tables, pair_rows, pair_keys, key_ids, postings):
    """:func:`verify_table` for many tables' surviving pairs, in one pass.

    Pair ``i`` (of at least one) names its table — ``pair_tables[i]``, an
    index into ``table_columns``, the tables' widths — its row, the ordinal
    ``pair_rows[i]``, and its key tuple, row ``pair_keys[i]`` of
    ``key_ids``; the rows are read off ``postings`` (:func:`key_matches`).

    Eq. 2 is one sort of ``(table, mapping, key)`` codes for all tables at
    once.  Returns ``(charges, tables, scores, mappings)``:

    * ``charges`` — ``(pairs, 4)`` ``int64``: per pair, its value
      comparisons, whether it is the first pair of its row, whether it
      verifies, and whether it is the first pair of its row that verifies.
      Summed over a prefix of one table's pairs these are the
      ``value_comparisons``, ``rows_passed_filter``, verified pairs and
      ``true_positive_rows`` :func:`verify_table` returns and charges for
      that prefix.  ``value_comparisons`` is the paper's cost model, a
      pair's table width times the key width (what comparing the row cell
      by cell costs); it does not count the work done here;
    * ``tables`` / ``scores`` / ``mappings`` — every table (index) with a
      verified pair, and its joinability and column mapping over *all* of
      its pairs.
    """
    np = _np
    num_keys, width = key_ids.shape
    pairs = len(pair_tables)
    owner, chosen = key_matches(pair_rows, pair_keys, key_ids, postings)

    verified = np.zeros(pairs, dtype=bool)
    verified[owner] = True
    charges = np.zeros((pairs, 4), dtype=np.int64)
    charges[:, 0] = table_columns.take(pair_tables) * width
    charges[:, 2] = verified
    # A stable sort by row ordinal lines up every row's pairs in pair
    # order: the first of a run is the row's first pair, and the first
    # verified one its first hit.
    by_row = np.argsort(pair_rows, kind="stable")
    charges[by_row[_run_starts(pair_rows.take(by_row))], 1] = 1
    by_row = by_row[verified.take(by_row)]
    charges[by_row[_run_starts(pair_rows.take(by_row))], 3] = 1
    if not len(owner):
        return charges, np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), []

    # Eq. 2: per table, the mapping most distinct key tuples agree on,
    # largest on ties.  One code per (table, mapping, key) orders like those
    # tuples, so one sort lines up every table's mappings.  The columns'
    # radix is read off the columns chosen, not the widths charged.
    radix = max(int(column.max()) for column in chosen) + 1
    supported, decode = _ordered_codes(
        [pair_tables.take(owner), *chosen, pair_keys.take(owner)],
        [len(table_columns), *[radix] * width, num_keys],
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
