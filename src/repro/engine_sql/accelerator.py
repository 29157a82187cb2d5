"""The pushdown accelerator schema: postings + super keys, SQL-queryable.

An index's packed segment block is a byte store — each value's posting
list is a slice of CSR arrays — so SQL cannot filter *inside* it.  The
accelerator denormalises an index into one row per posting-list item with
the row's super key packed alongside it:

``pushdown_postings(index_name, value, pos, table_id, column_index,
row_index, super_key, super_key_hi, super_key_lo)``
    ``pos`` is the item's position within the value's posting list (the
    fetch order the mate engine sees), ``super_key`` is the row super key
    as a fixed-width big-endian BLOB, and ``super_key_hi`` /
    ``super_key_lo`` carry the same value as two signed 64-bit limbs when
    the hash fits 128 bits (enabling the pure-SQL bitwise reject).

Each :class:`~repro.engine_sql.engine.SQLPushdownEngine` builds its own
accelerator in a private in-memory database from the index it serves
(:func:`build_accelerator`); nothing is persisted or reopened, so the
accelerator never needs validating against its index.
"""

from __future__ import annotations

import sqlite3
from typing import TYPE_CHECKING

from ..exceptions import StorageError

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..index import InvertedIndex

#: The ``index_name`` every accelerator row carries (one index per database).
INDEX_NAME = "main"

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
"""


def key_width(hash_size: int) -> int:
    """Bytes needed to hold a ``hash_size``-bit super key (at least one)."""
    return max(1, (hash_size + 7) // 8)


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


def build_accelerator(connection: sqlite3.Connection, index: "InvertedIndex") -> int:
    """Build the accelerator for ``index`` in a fresh ``connection``; returns
    the number of posting rows written.

    A full scan of the index's block in storage order: values in
    vocabulary order, each value's postings in posting order.  ``pos``
    enumerates each value's posting list in that order, which is
    exactly the order :class:`repro.index.batch.RequestArrays` keeps a
    table's postings in — the pushdown engine reconstructs the mate engine's
    scan order from ``(probe order, pos)``.
    """
    if not hasattr(index, "block"):
        raise StorageError(
            "cannot build a pushdown accelerator from "
            f"{type(index).__name__}: it does not expose a block"
        )
    connection.executescript(_ACCELERATOR_SCHEMA)
    block = index.block
    narrow = index.hash_size <= MAX_NARROW_HASH_SIZE

    def iter_rows():
        # One gather through the row ordinals joins every posting with its
        # row (the block's row keys are already the fixed-width BLOBs).
        arrays = block.arrays()
        tables = arrays.row_tables[arrays.ordinals].tolist()
        rows = arrays.row_rows[arrays.ordinals].tolist()
        keys = arrays.row_keys[arrays.ordinals]
        columns = block.column_indexes
        offsets = block.posting_offsets
        for value, start, end in zip(block.values, offsets, offsets[1:]):
            for pos, at in enumerate(range(start, end)):
                packed = keys[at].tobytes()
                super_key = int.from_bytes(packed, "big")
                hi, lo = split_limbs(super_key) if narrow else (None, None)
                yield (
                    INDEX_NAME,
                    value,
                    pos,
                    tables[at],
                    columns[at],
                    rows[at],
                    packed,
                    hi,
                    lo,
                )

    with connection:
        connection.executemany(
            "INSERT INTO pushdown_postings "
            "(index_name, value, pos, table_id, column_index, row_index, "
            "super_key, super_key_hi, super_key_lo) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            iter_rows(),
        )
        (item_count,) = connection.execute(
            "SELECT COUNT(*) FROM pushdown_postings WHERE index_name = ?",
            (INDEX_NAME,),
        ).fetchone()
    return item_count
