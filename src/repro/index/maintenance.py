"""Index maintenance under corpus edits (Section 5.4).

The paper enumerates how the extended index reacts to the three edit types on
a table corpus — insert, update, delete — at table, row, column, and cell
granularity.  :class:`IndexMaintainer` implements each of them so that the
index, the corpus, and the per-row super keys stay consistent:

* **insert table / insert row** — generate PL items for the new cells and a
  fresh super key per new row;
* **insert column** — hash each new value and OR it into the existing row
  super keys (no full rehash required);
* **update cell** — replace the PL item and fully rehash the affected row's
  super key (an OR-aggregate cannot "subtract" the old value);
* **delete table / delete row** — drop PL items and super keys;
* **delete column** — drop the column's PL items and rehash the super keys of
  every remaining row of that table.
"""

from __future__ import annotations

from ..datamodel import MISSING, Row, Table, TableCorpus
from ..datamodel.encoding import ENCODER
from ..exceptions import DataModelError
from ..hashing import SuperKeyGenerator
from .inverted import InvertedIndex


class IndexMaintainer:
    """Keeps an :class:`InvertedIndex` consistent with corpus edits."""

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        super_key_generator: SuperKeyGenerator,
    ):
        self.corpus = corpus
        self.index = index
        self.super_key_generator = super_key_generator

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------
    def insert_table(self, table: Table) -> None:
        """Add a new table to the corpus and index it."""
        self.corpus.add_table(table)
        for row_index, row in enumerate(table.rows):
            self._index_row(table.table_id, row_index, row)

    def insert_row(self, table_id: int, values: list[object]) -> int:
        """Append a row to an existing table; returns the new row index."""
        table = self.corpus.get_table(table_id)
        row = table.append_row(values)
        row_index = table.num_rows - 1
        self._index_row(table_id, row_index, row)
        return row_index

    def insert_column(self, table_id: int, column_name: str, values: list[object]) -> None:
        """Add a column to an existing table.

        Per Section 5.4 this only requires hashing the new values and OR-ing
        each into the corresponding row super key.
        """
        table = self.corpus.get_table(table_id)
        if column_name in table.columns:
            raise DataModelError(
                f"table {table_id} already has a column named {column_name!r}"
            )
        if len(values) != table.num_rows:
            raise DataModelError(
                f"column has {len(values)} values but table {table_id} has "
                f"{table.num_rows} rows"
            )
        column_index = table.num_columns
        table.columns.append(column_name)
        new_rows = []
        for row_index, (row, raw_value) in enumerate(zip(table.rows, values)):
            new_row = Row(list(row) + [raw_value])
            new_rows.append(new_row)
            value = new_row[column_index]
            if value != MISSING:
                self.index.add_posting(value, table_id, column_index, row_index)
                self.index.or_into_super_key(
                    table_id, row_index, self.super_key_generator.value_hash(value)
                )
        table.rows = new_rows
        ENCODER.forget(table)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update_cell(
        self, table_id: int, row_index: int, column_index: int, value: object
    ) -> None:
        """Replace a single cell value and rehash the row's super key."""
        table = self.corpus.get_table(table_id)
        if not 0 <= row_index < table.num_rows:
            raise DataModelError(
                f"row {row_index} out of range for table {table_id}"
            )
        if not 0 <= column_index < table.num_columns:
            raise DataModelError(
                f"column {column_index} out of range for table {table_id}"
            )
        old_row = table.rows[row_index]
        new_values = list(old_row)
        new_values[column_index] = value
        new_row = Row(new_values)
        table.rows[row_index] = new_row
        ENCODER.forget(table)

        # Postings: drop the old row's postings and re-add them from scratch.
        self.index.remove_row(table_id, row_index)
        self._index_row(table_id, row_index, new_row)

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------
    def delete_table(self, table_id: int) -> None:
        """Remove a table from the corpus and the index."""
        self.corpus.remove_table(table_id)
        self.index.remove_table(table_id)

    def delete_row(self, table_id: int, row_index: int) -> None:
        """Remove a single row from a table and the index.

        Rows after ``row_index`` are re-indexed because their positions shift.
        """
        table = self.corpus.get_table(table_id)
        if not 0 <= row_index < table.num_rows:
            raise DataModelError(
                f"row {row_index} out of range for table {table_id}"
            )
        # Drop every posting of this table and rebuild — row indexes shift, so
        # a local fix-up would have to rewrite most postings anyway.
        del table.rows[row_index]
        ENCODER.forget(table)
        self.index.remove_table(table_id)
        for new_index, row in enumerate(table.rows):
            self._index_row(table_id, new_index, row)

    def delete_column(self, table_id: int, column_name: str) -> None:
        """Remove a column; triggers a rehash of all row super keys (Section 5.4)."""
        table = self.corpus.get_table(table_id)
        column_index = table.column_index(column_name)
        del table.columns[column_index]
        new_rows = []
        for row in table.rows:
            values = list(row)
            del values[column_index]
            new_rows.append(Row(values))
        table.rows = new_rows
        ENCODER.forget(table)
        # Rebuild the table's postings and super keys: column indexes above
        # the removed column shift and super keys must forget the old values.
        self.index.remove_table(table_id)
        for row_index, row in enumerate(table.rows):
            self._index_row(table_id, row_index, row)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _index_row(self, table_id: int, row_index: int, row: Row) -> None:
        super_key = self.super_key_generator.row_super_key(row)
        self.index.set_super_key(table_id, row_index, super_key)
        for column_index, value in enumerate(row):
            if value == MISSING:
                continue
            self.index.add_posting(value, table_id, column_index, row_index)

    def verify_consistency(self) -> list[str]:
        """Cross-check index and corpus; returns a list of human-readable issues."""
        issues: list[str] = []
        for table in self.corpus:
            for row_index, row in enumerate(table.rows):
                if not self.index.has_row(table.table_id, row_index):
                    if any(v != MISSING for v in row):
                        issues.append(
                            f"missing super key for table {table.table_id} "
                            f"row {row_index}"
                        )
                    continue
                expected = self.super_key_generator.row_super_key(row)
                actual = self.index.super_key(table.table_id, row_index)
                if expected != actual:
                    issues.append(
                        f"stale super key for table {table.table_id} row {row_index}"
                    )
        indexed_tables = self.index.indexed_tables()
        corpus_tables = set(self.corpus.table_ids())
        for orphan in sorted(indexed_tables - corpus_tables):
            issues.append(f"index references missing table {orphan}")
        return issues
