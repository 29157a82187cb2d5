"""SQLite storage backend.

Stands in for the Vertica column store the paper uses (Section 7.1).  The
logical schema mirrors the extended inverted index:

* ``corpora(name)`` and ``tables(corpus, table_id, name, columns)`` hold the
  corpus metadata,
* ``cells(corpus, table_id, row_index, column_index, value)`` holds the table
  contents,
* ``posting_columns(index_name, value, item_count, table_ids,
  column_indexes, row_indexes)`` holds the packed struct-of-arrays posting
  columns as little-endian BLOBs (format version 2) — one row per value,
* ``super_keys(index_name, table_id, row_index, super_key)`` holds the
  per-row super keys (stored as hex text because they can exceed 64 bits),
* ``indexes(name, hash_function, hash_size, layout, format_version)`` holds
  index metadata,
* ``pushdown_postings(index_name, value, pos, table_id, column_index,
  row_index, super_key, super_key_int)`` and ``pushdown_meta`` hold the
  denormalised accelerator schema the SQL-pushdown engine
  (:mod:`repro.engine_sql`) compiles discovery queries against — one row per
  posting-list item with the row super key packed alongside it as a
  fixed-width big-endian BLOB (plus a plain integer column when the hash
  fits in 63 bits, so the reject can run as pure-SQL bitwise arithmetic).

Every index row reads ``layout = 'columnar'`` / ``format_version = 2``.
Databases written before the columnar layout existed lack those two columns;
they are added on open with a ``legacy`` / ``1`` default, which is what such
an index is.  :meth:`SQLiteBackend.load_index` refuses a format version 1
index (its PL items sit in the old per-item ``postings`` table) with a
:class:`~repro.exceptions.StorageError` naming the format: rebuild the index
and save it again.  The accelerator tables are created ``IF NOT EXISTS`` on
open, so pre-pushdown databases migrate by simply being opened (the
accelerator itself is rebuilt on demand).

Read connections run under ``journal_mode=WAL`` (file-backed databases),
``synchronous=NORMAL``, and a generous ``mmap_size`` so concurrent readers —
the serve pool, the pushdown engine — do not serialize on the default
rollback journal.
"""

from __future__ import annotations

import json
import sqlite3
import sys
from array import array
from pathlib import Path

from ..datamodel import Row, Table, TableCorpus
from ..exceptions import StorageError
from ..index import InvertedIndex
from .backend import StorageBackend
from .segment_block import SegmentBlock


def _array_to_blob(values: memoryview) -> bytes:
    """Serialise a packed integer column as little-endian bytes.

    ``tobytes`` is native-order; normalising to little-endian keeps the
    format-version-2 BLOBs portable across hosts of different endianness.
    """
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        swapped = array(values.format, values)
        swapped.byteswap()
        return swapped.tobytes()
    return values.tobytes()


def _blob_to_array(typecode: str, blob: bytes) -> array:
    """Deserialise a little-endian BLOB back into a packed integer column."""
    values = array(typecode)
    values.frombytes(blob)
    if sys.byteorder == "big":  # pragma: no cover - big-endian hosts only
        values.byteswap()
    return values

_SCHEMA = """
CREATE TABLE IF NOT EXISTS corpora (
    name TEXT PRIMARY KEY
);
CREATE TABLE IF NOT EXISTS tables (
    corpus TEXT NOT NULL,
    table_id INTEGER NOT NULL,
    name TEXT NOT NULL,
    columns TEXT NOT NULL,
    PRIMARY KEY (corpus, table_id)
);
CREATE TABLE IF NOT EXISTS cells (
    corpus TEXT NOT NULL,
    table_id INTEGER NOT NULL,
    row_index INTEGER NOT NULL,
    column_index INTEGER NOT NULL,
    value TEXT NOT NULL,
    PRIMARY KEY (corpus, table_id, row_index, column_index)
);
CREATE TABLE IF NOT EXISTS indexes (
    name TEXT PRIMARY KEY,
    hash_function TEXT NOT NULL,
    hash_size INTEGER NOT NULL,
    layout TEXT NOT NULL,
    format_version INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS posting_columns (
    index_name TEXT NOT NULL,
    value TEXT NOT NULL,
    item_count INTEGER NOT NULL,
    table_ids BLOB NOT NULL,
    column_indexes BLOB NOT NULL,
    row_indexes BLOB NOT NULL,
    PRIMARY KEY (index_name, value)
);
CREATE TABLE IF NOT EXISTS super_keys (
    index_name TEXT NOT NULL,
    table_id INTEGER NOT NULL,
    row_index INTEGER NOT NULL,
    super_key TEXT NOT NULL,
    PRIMARY KEY (index_name, table_id, row_index)
);
CREATE TABLE IF NOT EXISTS pushdown_postings (
    index_name TEXT NOT NULL,
    value TEXT NOT NULL,
    pos INTEGER NOT NULL,
    table_id INTEGER NOT NULL,
    column_index INTEGER NOT NULL,
    row_index INTEGER NOT NULL,
    super_key BLOB NOT NULL,
    super_key_hi INTEGER,
    super_key_lo INTEGER
);
CREATE INDEX IF NOT EXISTS pushdown_by_value
    ON pushdown_postings (index_name, value, pos);
CREATE INDEX IF NOT EXISTS pushdown_by_table
    ON pushdown_postings (index_name, table_id, value);
CREATE TABLE IF NOT EXISTS pushdown_meta (
    index_name TEXT PRIMARY KEY,
    hash_function TEXT NOT NULL,
    hash_size INTEGER NOT NULL,
    key_width INTEGER NOT NULL,
    item_count INTEGER NOT NULL,
    format_version INTEGER NOT NULL
);
"""

#: mmap window for read connections; SQLite clamps it to the file size.
_MMAP_SIZE_BYTES = 256 * 1024 * 1024


def _apply_read_pragmas(connection: sqlite3.Connection, path: str) -> None:
    """Tune a connection for concurrent read-heavy workloads.

    WAL only applies to file-backed databases (an in-memory database has no
    journal to switch); ``synchronous=NORMAL`` is the documented safe level
    under WAL and ``mmap_size`` lets large posting scans page straight from
    the OS cache.
    """
    connection.execute(f"PRAGMA mmap_size = {_MMAP_SIZE_BYTES}")
    connection.execute("PRAGMA synchronous = NORMAL")
    if path != ":memory:":
        connection.execute("PRAGMA journal_mode = WAL")


class SQLiteBackend(StorageBackend):
    """Relational persistence for corpora and inverted indexes."""

    def __init__(self, path: str | Path = ":memory:"):
        self.path = str(path)
        try:
            # check_same_thread=False: sessions run discovery on worker
            # threads (``discover_stream``); access is serialized by the
            # engines that borrow the connection.
            self._connection = sqlite3.connect(
                self.path, check_same_thread=False
            )
        except sqlite3.Error as exc:  # pragma: no cover - environment dependent
            raise StorageError(f"cannot open SQLite database at {self.path}") from exc
        _apply_read_pragmas(self._connection, self.path)
        self._connection.executescript(_SCHEMA)
        self._migrate_index_metadata()
        self._connection.commit()

    def read_connection(self) -> sqlite3.Connection:
        """Return a connection suitable for concurrent reads.

        File-backed databases get a fresh pragma-tuned connection so WAL
        readers genuinely run in parallel; an in-memory database has exactly
        one store, so the shared primary connection is returned instead.
        """
        if self.path == ":memory:":
            return self._connection
        connection = sqlite3.connect(self.path, check_same_thread=False)
        _apply_read_pragmas(connection, self.path)
        return connection

    def _migrate_index_metadata(self) -> None:
        """Add the layout/format_version columns to pre-columnar databases."""
        columns = {
            row[1]
            for row in self._connection.execute("PRAGMA table_info(indexes)")
        }
        if "layout" not in columns:
            self._connection.execute(
                "ALTER TABLE indexes "
                "ADD COLUMN layout TEXT NOT NULL DEFAULT 'legacy'"
            )
        if "format_version" not in columns:
            self._connection.execute(
                "ALTER TABLE indexes "
                "ADD COLUMN format_version INTEGER NOT NULL DEFAULT 1"
            )

    # ------------------------------------------------------------------
    # Corpora
    # ------------------------------------------------------------------
    def save_corpus(self, corpus: TableCorpus) -> None:
        connection = self._connection
        with connection:
            connection.execute("DELETE FROM corpora WHERE name = ?", (corpus.name,))
            connection.execute("DELETE FROM tables WHERE corpus = ?", (corpus.name,))
            connection.execute("DELETE FROM cells WHERE corpus = ?", (corpus.name,))
            connection.execute("INSERT INTO corpora (name) VALUES (?)", (corpus.name,))
            for table in corpus:
                connection.execute(
                    "INSERT INTO tables (corpus, table_id, name, columns) "
                    "VALUES (?, ?, ?, ?)",
                    (corpus.name, table.table_id, table.name, json.dumps(table.columns)),
                )
                connection.executemany(
                    "INSERT INTO cells "
                    "(corpus, table_id, row_index, column_index, value) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        (corpus.name, table.table_id, row_index, column_index, value)
                        for row_index, row in enumerate(table.rows)
                        for column_index, value in enumerate(row)
                    ),
                )

    def load_corpus(self, name: str) -> TableCorpus:
        connection = self._connection
        exists = connection.execute(
            "SELECT 1 FROM corpora WHERE name = ?", (name,)
        ).fetchone()
        if exists is None:
            raise StorageError(f"no corpus stored under name {name!r}")
        corpus = TableCorpus(name=name)
        table_rows = connection.execute(
            "SELECT table_id, name, columns FROM tables WHERE corpus = ? "
            "ORDER BY table_id",
            (name,),
        ).fetchall()
        for table_id, table_name, columns_json in table_rows:
            columns = json.loads(columns_json)
            cells = connection.execute(
                "SELECT row_index, column_index, value FROM cells "
                "WHERE corpus = ? AND table_id = ? ORDER BY row_index, column_index",
                (name, table_id),
            ).fetchall()
            num_rows = max((row_index for row_index, _, _ in cells), default=-1) + 1
            grid = [[""] * len(columns) for _ in range(num_rows)]
            for row_index, column_index, value in cells:
                grid[row_index][column_index] = value
            corpus.add_table(
                Table(
                    table_id=table_id,
                    name=table_name,
                    columns=columns,
                    rows=[Row(row) for row in grid],
                )
            )
        return corpus

    def list_corpora(self) -> list[str]:
        rows = self._connection.execute(
            "SELECT name FROM corpora ORDER BY name"
        ).fetchall()
        return [name for (name,) in rows]

    # ------------------------------------------------------------------
    # Indexes
    # ------------------------------------------------------------------
    def save_index(self, name: str, index: InvertedIndex) -> None:
        """Store ``index`` under ``name``, reading its postings straight from
        its block (no view is memoised per value)."""
        connection = self._connection
        with connection:
            connection.execute("DELETE FROM indexes WHERE name = ?", (name,))
            connection.execute(
                "DELETE FROM posting_columns WHERE index_name = ?", (name,)
            )
            connection.execute("DELETE FROM super_keys WHERE index_name = ?", (name,))
            # A re-saved index invalidates any accelerator derived from the
            # previous contents; the pushdown engine rebuilds on demand.
            connection.execute(
                "DELETE FROM pushdown_postings WHERE index_name = ?", (name,)
            )
            connection.execute(
                "DELETE FROM pushdown_meta WHERE index_name = ?", (name,)
            )
            connection.execute(
                "INSERT INTO indexes "
                "(name, hash_function, hash_size, layout, format_version) "
                "VALUES (?, ?, ?, ?, ?)",
                (name, index.hash_function_name, index.hash_size, "columnar", 2),
            )
            connection.executemany(
                "INSERT INTO posting_columns "
                "(index_name, value, item_count, table_ids, column_indexes, "
                "row_indexes) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    (
                        name,
                        value,
                        len(table_ids),
                        _array_to_blob(table_ids),
                        _array_to_blob(column_indexes),
                        _array_to_blob(row_indexes),
                    )
                    for value, table_ids, column_indexes, row_indexes in (
                        index.block.postings()
                    )
                ),
            )
            connection.executemany(
                "INSERT INTO super_keys (index_name, table_id, row_index, super_key) "
                "VALUES (?, ?, ?, ?)",
                (
                    (name, table_id, row_index, format(super_key, "x"))
                    for table_id, row_index, super_key in index.iter_super_keys()
                ),
            )

    def load_index(self, name: str) -> InvertedIndex:
        """The index stored under ``name``; a malformed record (posting
        BLOBs of unequal lengths, a bad hex key) raises
        :class:`~repro.exceptions.StorageError`."""
        connection = self._connection
        meta = connection.execute(
            "SELECT hash_function, hash_size, layout, format_version "
            "FROM indexes WHERE name = ?",
            (name,),
        ).fetchone()
        if meta is None:
            raise StorageError(f"no index stored under name {name!r}")
        hash_function, hash_size, layout, format_version = meta
        if layout != "columnar" or format_version != 2:
            raise StorageError(
                f"index {name!r} in {self.path} is stored in format version "
                f"{format_version}, layout {layout!r}, which is no longer "
                "read; rebuild the index and save it again"
            )
        packed_rows = connection.execute(
            "SELECT value, table_ids, column_indexes, row_indexes "
            "FROM posting_columns WHERE index_name = ?",
            (name,),
        ).fetchall()
        super_keys = connection.execute(
            "SELECT table_id, row_index, super_key FROM super_keys "
            "WHERE index_name = ?",
            (name,),
        ).fetchall()
        try:
            block = SegmentBlock.from_postings(
                hash_function,
                hash_size,
                (
                    (
                        value,
                        _blob_to_array("q", table_ids),
                        _blob_to_array("i", column_indexes),
                        _blob_to_array("q", row_indexes),
                    )
                    for value, table_ids, column_indexes, row_indexes in packed_rows
                ),
                (
                    (table_id, row_index, int(super_key_hex, 16))
                    for table_id, row_index, super_key_hex in super_keys
                ),
            )
        except ValueError as exc:
            raise StorageError(
                f"index {name!r} in {self.path} is malformed: {exc}"
            ) from exc
        return InvertedIndex(block)

    def list_indexes(self) -> list[str]:
        rows = self._connection.execute(
            "SELECT name FROM indexes ORDER BY name"
        ).fetchall()
        return [name for (name,) in rows]

    def delete_index(self, name: str) -> None:
        connection = self._connection
        with connection:
            connection.execute("DELETE FROM indexes WHERE name = ?", (name,))
            connection.execute(
                "DELETE FROM posting_columns WHERE index_name = ?", (name,)
            )
            connection.execute("DELETE FROM super_keys WHERE index_name = ?", (name,))
            connection.execute(
                "DELETE FROM pushdown_postings WHERE index_name = ?", (name,)
            )
            connection.execute(
                "DELETE FROM pushdown_meta WHERE index_name = ?", (name,)
            )

    # ------------------------------------------------------------------
    # Pushdown accelerator
    # ------------------------------------------------------------------
    def build_pushdown(self, name: str, index: InvertedIndex) -> int:
        """(Re)build the pushdown accelerator for ``index`` under ``name``.

        Returns the number of posting items materialised.  The heavy lifting
        lives in :mod:`repro.engine_sql.accelerator`; this wrapper exists so
        callers holding only a backend need not import the engine package.
        """
        from ..engine_sql.accelerator import build_accelerator

        return build_accelerator(self._connection, name, index)

    def ensure_pushdown(self, name: str, index: InvertedIndex) -> int:
        """Build the accelerator for ``index`` unless a valid one exists.

        Validates provenance (hash function/size, key width, format version)
        and row count before trusting an existing accelerator, so a stale or
        tampered one is rebuilt rather than silently queried.
        """
        from ..engine_sql.accelerator import ensure_accelerator

        return ensure_accelerator(self._connection, name, index)

    def pushdown_meta(self, name: str) -> dict | None:
        """Return the accelerator metadata row for ``name``, if built."""
        from ..engine_sql.accelerator import accelerator_meta

        return accelerator_meta(self._connection, name)

    def close(self) -> None:
        self._connection.close()
