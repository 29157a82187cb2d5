"""Relational data model used throughout the MATE reproduction.

The paper operates on web tables and open-data tables: small relational
tables identified by an id, with named columns and string-typed cells.  This
module provides the minimal, immutable-by-convention building blocks:

* :class:`Table` — a corpus table with an id, a name, column names and rows.
* :class:`QueryTable` — a user-provided input table ``d`` together with the
  selected composite key ``Q`` (Section 2 of the paper).

Cell values are normalised to lowercase stripped strings when they enter the
system (:func:`normalize_value`), mirroring the preprocessing of the reference
implementation; ``None`` and empty strings are treated as missing values and
never participate in joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from ..exceptions import DataModelError

#: Placeholder used internally for missing cells.
MISSING: str = ""


def normalize_value(value: object) -> str:
    """Normalise a raw cell value into the canonical string representation.

    * ``None`` becomes the empty string (treated as missing),
    * everything else is converted with :func:`str`, stripped and lowercased.

    >>> normalize_value("  Muhammad ")
    'muhammad'
    >>> normalize_value(42)
    '42'
    >>> normalize_value(None)
    ''
    """
    if value is None:
        return MISSING
    text = str(value).strip().lower()
    return text


class Row(tuple):
    """A single table row: an immutable tuple of normalised cell values."""

    __slots__ = ()

    def __new__(cls, values: Iterable[object]) -> "Row":
        return super().__new__(cls, (normalize_value(v) for v in values))


@dataclass
class Table:
    """A corpus table.

    Parameters
    ----------
    table_id:
        Integer identifier unique within a corpus.
    name:
        Human-readable table name (used for reporting only).
    columns:
        Column names, one per column.
    rows:
        Row values; each row must have exactly ``len(columns)`` cells.  Rows
        are normalised on construction and never change afterwards: an edit
        builds a new table (the value encoder keeps each table's matrix for
        the table's lifetime).
    """

    table_id: int
    name: str
    columns: list[str]
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.table_id < 0:
            raise DataModelError(f"table_id must be non-negative, got {self.table_id}")
        if not self.columns:
            raise DataModelError(f"table {self.table_id!r} must have at least one column")
        if len(set(self.columns)) != len(self.columns):
            raise DataModelError(
                f"table {self.table_id!r} has duplicate column names: {self.columns}"
            )
        normalised_rows: list[Row] = []
        for position, row in enumerate(self.rows):
            if len(row) != len(self.columns):
                raise DataModelError(
                    f"table {self.table_id!r} row {position} has {len(row)} cells, "
                    f"expected {len(self.columns)}"
                )
            normalised_rows.append(row if isinstance(row, Row) else Row(row))
        self.rows = normalised_rows

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of rows in the table."""
        return len(self.rows)

    @property
    def num_columns(self) -> int:
        """Number of columns in the table."""
        return len(self.columns)

    def __len__(self) -> int:
        return self.num_rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    # ------------------------------------------------------------------
    # Access helpers
    # ------------------------------------------------------------------
    def column_index(self, column: str) -> int:
        """Return the index of column ``column``.

        Raises :class:`DataModelError` if the column does not exist.
        """
        try:
            return self.columns.index(column)
        except ValueError as exc:
            raise DataModelError(
                f"table {self.name!r} has no column {column!r}; "
                f"available: {self.columns}"
            ) from exc

    def column_values(self, column: str | int) -> list[str]:
        """Return all values of a column (by name or index), including repeats."""
        index = column if isinstance(column, int) else self.column_index(column)
        if not 0 <= index < self.num_columns:
            raise DataModelError(
                f"column index {index} out of range for table {self.name!r}"
            )
        return [row[index] for row in self.rows]

    def distinct_column_values(self, column: str | int) -> set[str]:
        """Return the distinct non-missing values of a column."""
        return {v for v in self.column_values(column) if v != MISSING}

    def cardinality(self, column: str | int) -> int:
        """Return the number of distinct non-missing values in a column."""
        return len(self.distinct_column_values(column))

    def projection(self, columns: Sequence[str | int]) -> set[tuple[str, ...]]:
        """Return the distinct projection of the table onto ``columns``.

        This is ``pi_X(R)`` from Eq. 1 of the paper: a set of value tuples.
        Tuples containing only missing values are excluded.
        """
        indexes = [
            c if isinstance(c, int) else self.column_index(c) for c in columns
        ]
        projected: set[tuple[str, ...]] = set()
        for row in self.rows:
            values = tuple(row[i] for i in indexes)
            if any(v != MISSING for v in values):
                projected.add(values)
        return projected

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Table(id={self.table_id}, name={self.name!r}, "
            f"columns={self.num_columns}, rows={self.num_rows})"
        )


@dataclass
class QueryTable:
    """A query table ``d`` together with its composite key ``Q``.

    The composite key is the ordered list of query-column names the user
    selected (Section 2); the order matters only for reporting, joinability is
    defined over the best column mapping.
    """

    table: Table
    key_columns: list[str]

    def __post_init__(self) -> None:
        if not self.key_columns:
            raise DataModelError("a query table needs at least one key column")
        if len(set(self.key_columns)) != len(self.key_columns):
            raise DataModelError(
                f"duplicate key columns in query: {self.key_columns}"
            )
        for column in self.key_columns:
            self.table.column_index(column)  # raises if missing

    @property
    def key_size(self) -> int:
        """Number of columns in the composite key (``|Q|``)."""
        return len(self.key_columns)

    def key_tuples(self) -> set[tuple[str, ...]]:
        """Return the distinct composite-key value tuples (``pi_Q(d)``)."""
        return self.table.projection(self.key_columns)

    def column_cardinalities(self) -> dict[str, int]:
        """Return the cardinality of each key column (used by the heuristics)."""
        return {c: self.table.cardinality(c) for c in self.key_columns}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"QueryTable(table={self.table.name!r}, key={self.key_columns}, "
            f"rows={self.table.num_rows})"
        )
