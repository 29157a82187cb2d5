"""Table corpus abstraction.

A :class:`TableCorpus` is the collection of candidate tables the discovery
system searches (the data lake).  In the paper this is the Dresden Web Table
Corpus or the German Open Data repository; here it is an in-memory collection
(optionally persisted through :mod:`repro.storage`).

Besides acting as a container the corpus computes the global statistics that
the indexing layer needs:

* the number of distinct cell values (feeds Eq. 5, the 1-bit budget of XASH),
* the average number of columns per table (feeds the bloom-filter baseline's
  optimal number of hash functions, Section 7.1.2),
* per-corpus row/column/value counts as reported in Section 7.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..exceptions import CorpusError, DataModelError
from .table import MISSING, Table


@dataclass(frozen=True)
class CorpusStatistics:
    """Aggregate statistics of a corpus (Section 7.1 style)."""

    num_tables: int
    num_columns: int
    num_rows: int
    num_cells: int
    num_unique_values: int
    avg_columns_per_table: float
    avg_rows_per_table: float


class TableCorpus:
    """An in-memory collection of :class:`~repro.datamodel.table.Table` objects."""

    def __init__(self, name: str = "corpus", tables: Iterable[Table] | None = None):
        self.name = name
        self._tables: dict[int, Table] = {}
        if tables is not None:
            for table in tables:
                self.add_table(table)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __contains__(self, table_id: int) -> bool:
        return table_id in self._tables

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> None:
        """Add a table to the corpus.

        Raises :class:`CorpusError` if a table with the same id is present.
        """
        if table.table_id in self._tables:
            raise CorpusError(
                f"corpus {self.name!r} already contains table id {table.table_id}"
            )
        self._tables[table.table_id] = table

    def remove_table(self, table_id: int) -> Table:
        """Remove and return a table.  Raises :class:`CorpusError` if absent."""
        try:
            return self._tables.pop(table_id)
        except KeyError as exc:
            raise CorpusError(
                f"corpus {self.name!r} has no table with id {table_id}"
            ) from exc

    def create_table(self, name: str, columns: list[str], rows: list) -> Table:
        """Create a table with the next free id, add it, and return it."""
        table = Table(
            table_id=self.next_table_id(), name=name, columns=columns, rows=rows
        )
        self.add_table(table)
        return table

    def next_table_id(self) -> int:
        """Return the smallest id larger than every id currently in use."""
        if not self._tables:
            return 0
        return max(self._tables) + 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_table(self, table_id: int) -> Table:
        """Return the table with id ``table_id``."""
        try:
            return self._tables[table_id]
        except KeyError as exc:
            raise CorpusError(
                f"corpus {self.name!r} has no table with id {table_id}"
            ) from exc

    def table_ids(self) -> list[int]:
        """Return all table ids in insertion order."""
        return list(self._tables)

    def get_row(self, table_id: int, row_index: int) -> tuple[str, ...]:
        """Return the stored (immutable) row of a table."""
        table = self.get_table(table_id)
        if not 0 <= row_index < table.num_rows:
            raise DataModelError(
                f"row {row_index} out of range for table {table_id} "
                f"({table.num_rows} rows)"
            )
        return table.rows[row_index]

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def statistics(self) -> CorpusStatistics:
        """Compute aggregate statistics over the whole corpus."""
        num_tables = len(self._tables)
        num_columns = sum(t.num_columns for t in self)
        num_rows = sum(t.num_rows for t in self)
        num_cells = sum(t.num_rows * t.num_columns for t in self)
        unique_values: set[str] = set()
        for table in self:
            for row in table.rows:
                for value in row:
                    if value != MISSING:
                        unique_values.add(value)
        avg_columns = num_columns / num_tables if num_tables else 0.0
        avg_rows = num_rows / num_tables if num_tables else 0.0
        return CorpusStatistics(
            num_tables=num_tables,
            num_columns=num_columns,
            num_rows=num_rows,
            num_cells=num_cells,
            num_unique_values=len(unique_values),
            avg_columns_per_table=avg_columns,
            avg_rows_per_table=avg_rows,
        )

    def unique_values(self) -> set[str]:
        """Return the set of distinct non-missing cell values in the corpus."""
        values: set[str] = set()
        for table in self:
            for row in table.rows:
                values.update(v for v in row if v != MISSING)
        return values

    def average_columns_per_table(self) -> float:
        """Average number of columns per table (bloom-filter ``V`` parameter)."""
        if not self._tables:
            return 0.0
        return sum(t.num_columns for t in self) / len(self._tables)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TableCorpus(name={self.name!r}, tables={len(self._tables)})"
