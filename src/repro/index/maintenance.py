"""Index maintenance under corpus edits (Section 5.4).

The paper enumerates how the extended index reacts to the three edit types on
a table corpus — insert, update, delete — at table, row, column, and cell
granularity:

* **insert table / insert row** — PL items for the new cells and a fresh
  super key per new row;
* **insert column** — each new value is hashed and OR-ed into its row's
  super key (no full rehash required);
* **update cell** — the PL item is replaced and the row's super key fully
  rehashed (an OR-aggregate cannot "subtract" the old value);
* **delete table / delete row** — PL items and super keys are dropped;
* **delete column** — the column's PL items are dropped and the super keys
  of every remaining row of that table rehashed.

An index is one immutable CSR block, so :class:`IndexMaintainer` performs
every edit as the same rewrite: drop the edited table from the block and
append it again, rebuilt from the corpus —
:func:`~repro.storage.segment_block.merge_blocks` of the block without the
table and :func:`~repro.index.bulk.build_block` of the table — installed with
:meth:`InvertedIndex.replace_block
<repro.index.inverted.InvertedIndex.replace_block>`.  Insert table and delete
table are the two halves of that operation.  A rebuilt row's key is the one
the paper's in-place updates produce (an inserted column's key is the OR of
the old key and the new value's hash), and edited tables end the block in
the order they were last touched: the block is the bulk build of the corpus
in that order.
"""

from __future__ import annotations

from ..datamodel import MISSING, Row, Table, TableCorpus
from ..datamodel.encoding import ENCODER
from ..exceptions import DataModelError, IndexError_
from ..hashing import SuperKeyGenerator
from .bulk import build_block
from .inverted import InvertedIndex


def _refusal(index) -> str | None:
    """Why ``index`` cannot be maintained by block rewrites (``None`` when
    it can)."""
    from ..ingest.live import LiveIndex

    if isinstance(index, LiveIndex):
        return "a LiveIndex is edited through its add_table / remove_table"
    if not isinstance(index, InvertedIndex):
        return f"{type(index).__name__} is not an InvertedIndex"
    if index.path is not None:
        return (
            f"the index maps the read-only segment file {index.path}; "
            "rebuild and rewrite it to change it"
        )
    return None


class IndexMaintainer:
    """Keeps an :class:`InvertedIndex` consistent with corpus edits.

    Refuses, with an :class:`~repro.exceptions.IndexError_` naming the
    kind, an index it cannot rewrite: a :class:`~repro.ingest.LiveIndex`
    and one mapping a segment file.  An
    edit reads the block, rewrites it and installs the result, so one
    thread edits an index at a time; readers may run beside it.
    """

    def __init__(
        self,
        corpus: TableCorpus,
        index: InvertedIndex,
        super_key_generator: SuperKeyGenerator,
    ):
        refusal = _refusal(index)
        if refusal is not None:
            raise IndexError_(f"cannot maintain this index: {refusal}")
        self.corpus = corpus
        self.index = index
        self.super_key_generator = super_key_generator

    # ------------------------------------------------------------------
    # Inserts
    # ------------------------------------------------------------------
    def insert_table(self, table: Table) -> None:
        """Add a new table to the corpus and index it."""
        self.corpus.add_table(table)
        self._rewrite(table)

    def insert_row(self, table_id: int, values: list[object]) -> int:
        """Append a row to an existing table; returns the new row index."""
        table = self.corpus.get_table(table_id)
        table.append_row(values)
        self._rewrite(table)
        return table.num_rows - 1

    def insert_column(self, table_id: int, column_name: str, values: list[object]) -> None:
        """Add a column to an existing table.

        Per Section 5.4 each row's key becomes its old key OR-ed with the
        new value's hash — which is the rebuilt row's key.
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
        table.columns.append(column_name)
        table.rows = [
            Row(list(row) + [value]) for row, value in zip(table.rows, values)
        ]
        ENCODER.forget(table)
        self._rewrite(table)

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
        new_values = list(table.rows[row_index])
        new_values[column_index] = value
        table.rows[row_index] = Row(new_values)
        ENCODER.forget(table)
        self._rewrite(table)

    # ------------------------------------------------------------------
    # Deletes
    # ------------------------------------------------------------------
    def delete_table(self, table_id: int) -> None:
        """Remove a table from the corpus and the index."""
        self.corpus.remove_table(table_id)
        self._replace(table_id, None)

    def delete_row(self, table_id: int, row_index: int) -> None:
        """Remove a single row from a table and the index (the rows after
        it shift up, and so do their row indexes)."""
        table = self.corpus.get_table(table_id)
        if not 0 <= row_index < table.num_rows:
            raise DataModelError(
                f"row {row_index} out of range for table {table_id}"
            )
        del table.rows[row_index]
        ENCODER.forget(table)
        self._rewrite(table)

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
        self._rewrite(table)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rewrite(self, table: Table) -> None:
        """Re-index ``table`` as it now stands in the corpus."""
        self._replace(table.table_id, table)

    def _replace(self, table_id: int, table: Table | None) -> None:
        """Drop ``table_id`` from the index block and append ``table``
        rebuilt (nothing for a delete)."""
        # Imported here: ``repro.storage`` itself imports ``repro.index``.
        from ..storage.segment_block import merge_blocks

        block = self.index.block
        blocks, masks = [block], [{table_id}]
        if table is not None:
            blocks.append(
                build_block([table], self.super_key_generator, block.hash_function_name)
            )
            masks.append(set())
        self.index.replace_block(merge_blocks(blocks, masks))

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
