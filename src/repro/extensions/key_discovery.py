"""Composite-key candidate discovery (unique column combinations).

The paper's introduction motivates n-ary join discovery with the observation
that composite keys are prevalent but *undocumented*: "In open data lakes
primary key information and other metadata are generally not known", and
enumerating all unique column combinations (UCCs) up front is exponentially
expensive (Section 1 cites 168M UCCs in TPC-E/TPC-H).  MATE therefore leaves
the choice of the query's composite key to the user.

This extension closes that gap for the *query table*: given a table, it
discovers the minimal unique column combinations up to a bounded arity and
ranks them as composite-key suggestions.  The search is a level-wise lattice
walk in the style of inclusion-dependency/UCC discovery (De Marchi et al.,
Papenbrock et al. — references [9, 33] of the paper), restricted to the query
table, which is small by definition, so the exponential worst case is never
an issue in practice:

* level 1: single columns; unique ones are minimal UCCs,
* level ``n``: combinations of non-unique (n-1)-combinations, pruned by the
  apriori rule (any superset of a UCC is skipped) and by an upper bound on
  the achievable distinct count.

Suggestions are ranked to prefer small keys built from join-friendly columns
(text/code/date, not floating-point measures), typed by
:func:`repro.lake.type_inference.infer_column_type`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..datamodel import MISSING, QueryTable, Table
from ..exceptions import DataModelError
from ..lake.type_inference import ColumnType, infer_column_type


@dataclass(frozen=True)
class KeyCandidate:
    """One discovered composite-key candidate."""

    columns: tuple[str, ...]
    #: Number of distinct (non-missing) value combinations.
    distinct_combinations: int
    #: Number of rows with no missing value in the candidate columns.
    covered_rows: int
    #: ``distinct_combinations / covered_rows`` (1.0 = unique combination).
    uniqueness: float
    #: Whether the combination is unique over the covered rows.
    is_unique: bool
    #: Whether the combination is a *minimal* UCC (no proper subset is unique).
    is_minimal: bool

    @property
    def arity(self) -> int:
        """Number of columns in the candidate."""
        return len(self.columns)


def _combination_statistics(
    table: Table, columns: Sequence[str]
) -> tuple[int, int]:
    """Return (distinct combinations, covered rows) for a column combination.

    Rows containing a missing value in any of the columns are excluded, the
    same treatment the joinability definition applies to key tuples.
    """
    indexes = [table.column_index(column) for column in columns]
    seen: set[tuple[str, ...]] = set()
    covered = 0
    for row in table.rows:
        values = tuple(row[index] for index in indexes)
        if any(value == MISSING for value in values):
            continue
        covered += 1
        seen.add(values)
    return len(seen), covered


def evaluate_combination(table: Table, columns: Sequence[str]) -> KeyCandidate:
    """Evaluate one column combination as a key candidate (minimality unset).

    ``is_minimal`` is reported as ``True`` here; the lattice search in
    :func:`discover_key_candidates` overrides it with the real value.
    """
    if not columns:
        raise DataModelError("a key candidate needs at least one column")
    if len(set(columns)) != len(columns):
        raise DataModelError(f"duplicate columns in candidate: {columns}")
    distinct, covered = _combination_statistics(table, columns)
    uniqueness = distinct / covered if covered else 0.0
    return KeyCandidate(
        columns=tuple(columns),
        distinct_combinations=distinct,
        covered_rows=covered,
        uniqueness=uniqueness,
        is_unique=covered > 0 and distinct == covered,
        is_minimal=True,
    )


def discover_key_candidates(
    table: Table,
    max_arity: int = 3,
    columns: Sequence[str] | None = None,
    exclude_types: Sequence[ColumnType] = (ColumnType.FLOAT, ColumnType.EMPTY),
    min_coverage: float = 0.5,
) -> list[KeyCandidate]:
    """Discover minimal unique column combinations of ``table``.

    Parameters
    ----------
    max_arity:
        Largest combination size to explore (the paper's experiments use keys
        of 2-10 columns; suggestion quality degrades beyond a handful).
    columns:
        Candidate columns; defaults to every column whose inferred type is not
        in ``exclude_types``.
    min_coverage:
        Minimum fraction of rows that must have no missing value in the
        combination for it to be considered (guards against key suggestions
        that only "work" because most of their rows are empty).

    Returns the minimal UCCs (plus, when no UCC exists within ``max_arity``,
    the best non-unique combinations of maximum arity), ranked by
    :func:`rank_key_candidates`.
    """
    if max_arity <= 0:
        raise DataModelError(f"max_arity must be positive, got {max_arity}")
    if columns is None:
        excluded = set(exclude_types)
        columns = [
            column
            for column in table.columns
            if infer_column_type(
                [v for v in table.column_values(column) if v != MISSING]
            )
            not in excluded
        ]
    else:
        for column in columns:
            table.column_index(column)  # raises if missing
    columns = list(columns)
    if not columns:
        return []

    total_rows = max(table.num_rows, 1)
    minimal_uccs: list[KeyCandidate] = []
    frontier: list[tuple[str, ...]] = [(column,) for column in columns]
    best_non_unique: dict[tuple[str, ...], KeyCandidate] = {}

    for arity in range(1, max_arity + 1):
        next_frontier: list[tuple[str, ...]] = []
        for combination in frontier:
            candidate = evaluate_combination(table, combination)
            if candidate.covered_rows / total_rows < min_coverage:
                continue
            if candidate.is_unique:
                minimal_uccs.append(candidate)
            else:
                best_non_unique[combination] = candidate
                next_frontier.append(combination)
        if arity == max_arity:
            break
        # Apriori expansion: extend only non-unique combinations, and never
        # into a superset of an already found UCC (those cannot be minimal).
        ucc_sets = [set(u.columns) for u in minimal_uccs]
        expansions: set[tuple[str, ...]] = set()
        for combination in next_frontier:
            last_index = columns.index(combination[-1])
            for column in columns[last_index + 1:]:
                extended = combination + (column,)
                if any(ucc <= set(extended) for ucc in ucc_sets):
                    continue
                expansions.add(extended)
        frontier = sorted(expansions)

    if minimal_uccs:
        return rank_key_candidates(table, minimal_uccs)

    # No UCC within the arity bound: report the most discriminating
    # combinations of the largest explored arity as "near keys".
    widest = [
        candidate
        for candidate in best_non_unique.values()
        if candidate.arity == min(max_arity, len(columns))
    ]
    widest.sort(key=lambda c: (-c.uniqueness, c.arity, c.columns))
    return rank_key_candidates(table, widest[:10])


def rank_key_candidates(
    table: Table, candidates: Sequence[KeyCandidate]
) -> list[KeyCandidate]:
    """Rank key candidates: unique first, then small, then join-friendly.

    Join-friendliness prefers combinations whose columns are text-like (the
    values a web-table join is likely to share) over purely numeric ones; ties
    are broken by column order for determinism.
    """
    type_of: dict[str, ColumnType] = {}
    for column in table.columns:
        values = [v for v in table.column_values(column) if v != MISSING]
        type_of[column] = infer_column_type(values)

    def friendliness(candidate: KeyCandidate) -> int:
        return sum(
            1
            for column in candidate.columns
            if type_of.get(column) in (ColumnType.TEXT, ColumnType.CODE,
                                       ColumnType.DATE, ColumnType.TIMESTAMP)
        )

    ranked = sorted(
        candidates,
        key=lambda c: (
            not c.is_unique,
            c.arity,
            -friendliness(c),
            -c.uniqueness,
            c.columns,
        ),
    )
    return list(ranked)


def suggest_query(
    table: Table, max_arity: int = 3, prefer_arity: int | None = 2
) -> QueryTable:
    """Build a :class:`QueryTable` from the best discovered key candidate.

    ``prefer_arity`` biases the choice towards composite keys of that size
    when one exists among the suggestions (MATE's value proposition is n-ary
    keys, so suggesting a unary key only happens when nothing better exists).
    Raises :class:`DataModelError` when no candidate at all can be found.
    """
    candidates = discover_key_candidates(table, max_arity=max_arity)
    if not candidates:
        raise DataModelError(
            f"no composite-key candidate found for table {table.name!r}"
        )
    chosen = candidates[0]
    if prefer_arity is not None:
        preferred = [c for c in candidates if c.arity == prefer_arity and c.is_unique]
        if not preferred:
            preferred = [c for c in candidates if c.arity == prefer_arity]
        if preferred:
            chosen = preferred[0]
    return QueryTable(table=table, key_columns=list(chosen.columns))
