"""The pushdown accelerator schema: postings + super keys, SQL-queryable.

The normal posting tables of :class:`~repro.storage.sqlite.SQLiteBackend`
are byte stores — the columnar layout even packs whole posting lists into
BLOBs — so SQL cannot filter *inside* them.  The accelerator denormalises an
index into one row per posting-list item with the row's super key packed
alongside it:

* ``pushdown_postings(index_name, value, pos, table_id, column_index,
  row_index, super_key, super_key_int)`` — ``pos`` is the item's position
  within the value's posting list (the fetch order the mate engine sees),
  ``super_key`` is the row super key as a fixed-width big-endian BLOB, and
  ``super_key_int`` carries the same value as a plain integer when the hash
  fits a signed 64-bit word (enabling the pure-SQL bitwise reject);
* ``pushdown_meta(index_name, hash_function, hash_size, key_width,
  item_count, format_version)`` — the provenance a consumer validates
  before trusting the accelerator.

Everything here operates on a plain :class:`sqlite3.Connection` so the
storage backend can delegate without importing the engine, and the engine
can build a private in-memory accelerator when no backend is attached.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING

from ..exceptions import StorageError

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..index import InvertedIndex

#: Bump on any change to the accelerator row format; a mismatch triggers a
#: rebuild on the next engine construction.
PUSHDOWN_FORMAT_VERSION = 1

#: Hash sizes whose super keys fit two signed 64-bit SQLite integers (the
#: ``super_key_hi`` / ``super_key_lo`` limb columns) — the reject can then
#: run as native bitwise arithmetic instead of calling the registered BLOB
#: comparison function per row.  Covers the default 128-bit XASH.
MAX_NARROW_HASH_SIZE = 128


def split_limbs(value: int) -> tuple[int, int]:
    """Split a ≤128-bit unsigned integer into signed 64-bit (hi, lo) limbs.

    SQLite integers are signed 64-bit two's complement; bitwise ``&``/``~``
    and the ``= 0`` comparison operate on the raw bit pattern, so the limbs
    only need a representation shift, not a semantic one.
    """

    def signed(limb: int) -> int:
        return limb - (1 << 64) if limb >= (1 << 63) else limb

    return signed(value >> 64), signed(value & ((1 << 64) - 1))

_ACCELERATOR_SCHEMA = """
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

_META_COLUMNS = (
    "hash_function",
    "hash_size",
    "key_width",
    "item_count",
    "format_version",
)


def key_width(hash_size: int) -> int:
    """Bytes needed to hold a ``hash_size``-bit super key (at least one)."""
    return max(1, (hash_size + 7) // 8)


def ensure_accelerator_schema(connection: sqlite3.Connection) -> None:
    """Create the accelerator tables if missing (idempotent)."""
    connection.executescript(_ACCELERATOR_SCHEMA)


def register_covers_function(connection: sqlite3.Connection) -> None:
    """Register the XASH reject over packed super-key BLOBs.

    ``repro_covers(row_super_key, key_super_key)`` implements line 18 of
    Algorithm 1 — every set bit of the key must be set in the row mask,
    i.e. ``key & ~row == 0`` — on big-endian BLOBs of any width (Python
    integers make mixed widths safe).  Deterministic, so SQLite may cache
    and reorder calls freely.
    """

    def covers(row_blob: bytes, key_blob: bytes) -> int:
        row = int.from_bytes(row_blob, "big")
        key = int.from_bytes(key_blob, "big")
        return int(key & ~row == 0)

    connection.create_function("repro_covers", 2, covers, deterministic=True)


def build_accelerator(
    connection: sqlite3.Connection, name: str, index: "InvertedIndex"
) -> int:
    """(Re)build the accelerator for ``index`` under ``name``; returns items.

    ``pos`` enumerates each value's posting list in storage order, which is
    exactly the order :class:`repro.index.batch.RequestArrays` keeps a
    table's postings in — the pushdown engine reconstructs the mate engine's
    scan order from ``(probe order, pos)``.
    """
    for attribute in ("values", "posting_list", "super_key"):
        if not hasattr(index, attribute):
            raise StorageError(
                "cannot build a pushdown accelerator from "
                f"{type(index).__name__}: it does not expose {attribute}()"
            )
    ensure_accelerator_schema(connection)
    width = key_width(index.hash_size)
    narrow = index.hash_size <= MAX_NARROW_HASH_SIZE

    def iter_rows():
        for value in index.values():
            for pos, item in enumerate(index.posting_list(value)):
                super_key = index.super_key(item.table_id, item.row_index)
                hi, lo = split_limbs(super_key) if narrow else (None, None)
                yield (
                    name,
                    value,
                    pos,
                    item.table_id,
                    item.column_index,
                    item.row_index,
                    super_key.to_bytes(width, "big"),
                    hi,
                    lo,
                )

    with connection:
        connection.execute(
            "DELETE FROM pushdown_postings WHERE index_name = ?", (name,)
        )
        connection.execute(
            "DELETE FROM pushdown_meta WHERE index_name = ?", (name,)
        )
        connection.executemany(
            "INSERT INTO pushdown_postings "
            "(index_name, value, pos, table_id, column_index, row_index, "
            "super_key, super_key_hi, super_key_lo) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            iter_rows(),
        )
        (item_count,) = connection.execute(
            "SELECT COUNT(*) FROM pushdown_postings WHERE index_name = ?",
            (name,),
        ).fetchone()
        connection.execute(
            "INSERT INTO pushdown_meta "
            "(index_name, hash_function, hash_size, key_width, item_count, "
            "format_version) VALUES (?, ?, ?, ?, ?, ?)",
            (
                name,
                index.hash_function_name,
                index.hash_size,
                width,
                item_count,
                PUSHDOWN_FORMAT_VERSION,
            ),
        )
    return item_count


def accelerator_meta(
    connection: sqlite3.Connection, name: str
) -> dict[str, object] | None:
    """Return the accelerator's metadata row, or ``None`` when absent.

    Absent covers a dropped/corrupted ``pushdown_meta`` table too — the
    caller's answer to both is the same (rebuild), so they report the same.
    """
    try:
        row = connection.execute(
            "SELECT hash_function, hash_size, key_width, item_count, "
            "format_version FROM pushdown_meta WHERE index_name = ?",
            (name,),
        ).fetchone()
    except sqlite3.Error:
        return None
    if row is None:
        return None
    return dict(zip(_META_COLUMNS, row))


def accelerator_matches(
    connection: sqlite3.Connection, name: str, index: "InvertedIndex"
) -> bool:
    """Whether a valid, current accelerator for ``index`` exists.

    Validates provenance (hash function, hash size, key width, format
    version) and that the stored item count matches the actual row count —
    a truncated or tampered accelerator fails this and gets rebuilt.
    """
    meta = accelerator_meta(connection, name)
    if meta is None:
        return False
    if (
        meta["hash_function"] != index.hash_function_name
        or meta["hash_size"] != index.hash_size
        or meta["key_width"] != key_width(index.hash_size)
        or meta["format_version"] != PUSHDOWN_FORMAT_VERSION
    ):
        return False
    try:
        (count,) = connection.execute(
            "SELECT COUNT(*) FROM pushdown_postings WHERE index_name = ?",
            (name,),
        ).fetchone()
    except sqlite3.Error:
        return False
    return count == meta["item_count"]


def ensure_accelerator(
    connection: sqlite3.Connection, name: str, index: "InvertedIndex"
) -> int:
    """Build the accelerator unless a valid one is already present."""
    if accelerator_matches(connection, name, index):
        meta = accelerator_meta(connection, name)
        assert meta is not None  # accelerator_matches just read it
        return int(meta["item_count"])  # type: ignore[arg-type]
    return build_accelerator(connection, name, index)
