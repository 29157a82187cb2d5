"""One sealed segment as one CSR block — in memory and on disk.

A :class:`SegmentBlock` holds every posting of a segment in whole columns:
the vocabulary in first-seen order, one ``posting_offsets`` array cutting the
columns into per-value posting lists (value ``i`` owns positions
``offsets[i]:offsets[i + 1]``), the three posting columns, the packed super
key of every posting (the vectorized kernels' input, sliced zero-copy), and
the row table — ``(table_id, row_index)`` sorted ascending with a parallel
packed key buffer — for point lookups.  The columns are
:class:`memoryview` s (formats ``'q'`` / ``'i'`` / ``'B'``) whatever backs
them — a numpy array, an :class:`array.array`, or a file mapping — so readers
iterate Python integers and the numpy kernels wrap them without a copy.

Sealing, merging and writing a segment are operations on these columns:

* :func:`flatten_index` turns any columnar
  :class:`~repro.index.InvertedIndex` into a block in one pass;
* :func:`merge_blocks` collapses adjacent blocks into one, purging masked
  tables.  With numpy it reorders all columns by **one stable argsort** of
  the merged value ids: equal ids keep block order, then posting order —
  the concatenation order a bulk rebuild over the surviving tables
  produces.

Both have a numpy lane and a stdlib lane over the same columns, selected by
:func:`repro.index.kernels.active_kernel` (numpy is the optional ``accel``
extra); the lanes build identical blocks.  The file format around a block is
:mod:`repro.storage.paged`'s.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import chain
from typing import TYPE_CHECKING, Any, Collection, Iterable, Sequence

from ..exceptions import IndexError_, SegmentFormatError
from ..index.columnar import PackedSuperKeys
from ..index.kernels import active_kernel

if TYPE_CHECKING:
    from ..index import InvertedIndex

try:  # numpy is an optional accelerator (the ``accel`` extra), never required
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI entry
    _np = None  # type: ignore[assignment]

#: A spilled (oversize) super key: ``(table_id, row_index) -> key``.
Spill = dict[tuple[int, int], int]


def _view(data: Any, typecode: str) -> memoryview:
    """``data``'s bytes as a flat read-only-or-not view of ``typecode`` items.

    Cast through ``'B'``: a numpy ``int64`` array exports format ``'l'``,
    not ``'q'``, on Linux, and every consumer compares typecodes.  A numpy
    array is flattened first — :class:`memoryview` refuses to cast an
    ``(0, width)`` key matrix ("zeros in shape"), which is what a block
    without postings or rows holds.
    """
    if _np is not None and isinstance(data, _np.ndarray):
        data = data.reshape(-1)
    return memoryview(data).cast("B").cast(typecode)


class SegmentBlock:
    """The CSR block of one segment (see the module docstring)."""

    __slots__ = (
        "hash_function_name",
        "hash_size",
        "key_width",
        "values",
        "posting_offsets",
        "table_ids",
        "row_indexes",
        "column_indexes",
        "posting_keys",
        "row_table_ids",
        "row_row_indexes",
        "row_keys",
        "spill",
        "unpacked",
    )

    def __init__(
        self,
        *,
        hash_function_name: str,
        hash_size: int,
        key_width: int,
        values: list[str],
        posting_offsets: Any,
        table_ids: Any,
        row_indexes: Any,
        column_indexes: Any,
        posting_keys: Any,
        row_table_ids: Any,
        row_row_indexes: Any,
        row_keys: Any,
        spill: Spill,
        unpacked: Iterable[int],
    ):
        self.hash_function_name = hash_function_name
        self.hash_size = hash_size
        #: Bytes per packed super key.
        self.key_width = key_width
        #: The vocabulary, first-seen order (which is fetch order).
        self.values = values
        #: ``len(values) + 1`` posting positions, a strictly increasing
        #: partition of the posting columns (no value has an empty list).
        self.posting_offsets = _view(posting_offsets, "q")
        self.table_ids = _view(table_ids, "q")
        self.row_indexes = _view(row_indexes, "q")
        self.column_indexes = _view(column_indexes, "i")
        #: Packed big-endian super key of every posting's row (zeros where
        #: the row has none or its key spilled).
        self.posting_keys = _view(posting_keys, "B")
        #: The row table: ``(table_id, row_index)`` ascending, keys parallel.
        self.row_table_ids = _view(row_table_ids, "q")
        self.row_row_indexes = _view(row_row_indexes, "q")
        self.row_keys = _view(row_keys, "B")
        #: Keys too wide for ``key_width``.
        self.spill = spill
        #: Ids of the values with a posting on a spilled row: their
        #: ``posting_keys`` slice would be lossy, so they are served through
        #: the integer column.  Computed by whoever lays the columns out and
        #: recorded in the file, so opening one never scans the postings.
        self.unpacked = frozenset(unpacked)

    def __reduce__(self):
        """Pickle / deep-copy by the columns' bytes (a :class:`memoryview`
        supports neither): the copy lives on the heap whatever backs this
        block."""
        state = {
            name: bytes(held) if isinstance(held, memoryview) else held
            for name in self.__slots__
            for held in (getattr(self, name),)
        }
        return _block_from_state, (state,)

    @classmethod
    def empty(
        cls, hash_function_name: str, hash_size: int, key_width: int
    ) -> "SegmentBlock":
        """A block without values, postings or rows."""
        return cls(
            hash_function_name=hash_function_name,
            hash_size=hash_size,
            key_width=key_width,
            values=[],
            posting_offsets=array("q", [0]),
            table_ids=b"",
            row_indexes=b"",
            column_indexes=b"",
            posting_keys=b"",
            row_table_ids=b"",
            row_row_indexes=b"",
            row_keys=b"",
            spill={},
            unpacked=(),
        )


def _block_from_state(state: dict[str, Any]) -> SegmentBlock:
    return SegmentBlock(**state)


# ----------------------------------------------------------------------
# Flatten: any columnar InvertedIndex -> one block
# ----------------------------------------------------------------------
def flatten_index(index: "InvertedIndex") -> SegmentBlock:
    """Lay a columnar index out as one :class:`SegmentBlock`.

    The row table is read from whichever super-key store is attached to
    ``index`` — a shard of a sharded index is flattened with the *central*
    store attached, so its block carries rows its postings never mention.
    """
    if index.layout != "columnar":
        raise SegmentFormatError(
            f"segment files require the columnar layout (got {index.layout!r})"
        )
    # The packed store behind the index (intra-package by design: the block
    # *is* the store's flat form).
    store = index._super_keys
    width = getattr(store, "width_bytes", 0) or max(1, (index.hash_size + 7) // 8)
    values: list[str] = []
    postings = []
    for value in index.values():
        value_columns = index.posting_columns(value)
        if value_columns is not None and len(value_columns):
            values.append(value)
            postings.append(value_columns)
    if active_kernel() == "numpy" and isinstance(store, PackedSuperKeys):
        columns, spill = _flatten_numpy(postings, store, width)
    else:
        columns, spill = _flatten_stdlib(postings, store, width)
    return SegmentBlock(
        hash_function_name=index.hash_function_name,
        hash_size=index.hash_size,
        key_width=width,
        values=values,
        spill=spill,
        **columns,
    )


def _joined(columns: Iterable[Any], typecode: str) -> bytes:
    """The native-order bytes of posting columns, concatenated."""
    return b"".join(
        column.tobytes()
        if getattr(column, "typecode", None) == typecode
        or getattr(column, "format", None) == typecode
        else array(typecode, column).tobytes()
        for column in columns
    )


def _flatten_stdlib(columns, store, width: int) -> tuple[dict[str, Any], Spill]:
    """``(the block's columns by name, the spill)``, over stdlib arrays."""
    offsets = array("q", [0])
    total = 0
    keys = bytearray()
    limit = 1 << (8 * width)
    zero = bytes(width)
    for value_columns in columns:
        total += len(value_columns)
        offsets.append(total)
        packed = value_columns.super_key_packed(store)
        if packed is None:
            # A posting on a spilled row, or a store that cannot pack: the
            # keys that fit are still stored (a merge may purge the spilled
            # row and serve the value packed again).
            packed = b"".join(
                super_key.to_bytes(width, "big") if 0 <= super_key < limit else zero
                for super_key in value_columns.super_key_column(store)
            )
        keys += packed
    row_tables, row_rows = array("q"), array("q")
    row_keys = bytearray()
    spill: Spill = {}
    for (table_id, row_index), super_key in sorted(store.items()):
        if 0 <= super_key < limit:
            row_tables.append(table_id)
            row_rows.append(row_index)
            row_keys += super_key.to_bytes(width, "big")
        else:
            spill[(table_id, row_index)] = super_key
    table_ids = _joined((c.table_ids for c in columns), "q")
    row_indexes = _joined((c.row_indexes for c in columns), "q")
    return {
        "posting_offsets": offsets,
        "table_ids": table_ids,
        "row_indexes": row_indexes,
        "column_indexes": _joined((c.column_indexes for c in columns), "i"),
        "posting_keys": keys,
        "row_table_ids": row_tables,
        "row_row_indexes": row_rows,
        "row_keys": row_keys,
        "unpacked": _unpacked_stdlib(spill, offsets, table_ids, row_indexes),
    }, spill


def _flatten_numpy(
    columns, store: PackedSuperKeys, width: int
) -> tuple[dict[str, Any], Spill]:
    """:func:`_flatten_stdlib` as whole-column numpy operations."""
    count = len(columns)
    offsets = _np.zeros(count + 1, dtype=_np.int64)
    _np.cumsum(_np.fromiter(map(len, columns), _np.int64, count), out=offsets[1:])
    table_ids = _np.frombuffer(_joined((c.table_ids for c in columns), "q"), _np.int64)
    row_indexes = _np.frombuffer(
        _joined((c.row_indexes for c in columns), "q"), _np.int64
    )
    # The row table: the store's slot map under one lexsort.
    slots = store._slots
    pairs = _np.fromiter(
        chain.from_iterable(slots), _np.int64, 2 * len(slots)
    ).reshape(len(slots), 2)
    order = _np.lexsort((pairs[:, 1], pairs[:, 0]))
    row_tables, row_rows = pairs[order, 0], pairs[order, 1]
    slot_of = _np.fromiter(slots.values(), _np.intp, len(slots))[order]
    row_keys = _np.frombuffer(store._buffer, _np.uint8).reshape(-1, width)[slot_of]
    # Per-posting keys: one sorted search into the row table, one gather.
    keys = _np.zeros((len(table_ids), width), dtype=_np.uint8)
    if len(row_tables) and len(table_ids):
        at, found = _row_positions(row_tables, row_rows, table_ids, row_indexes)
        keys[found] = row_keys[at[found]]
    spill = dict(store._spill)
    return {
        "posting_offsets": offsets,
        "table_ids": table_ids,
        "row_indexes": row_indexes,
        "column_indexes": _joined((c.column_indexes for c in columns), "i"),
        "posting_keys": keys,
        "row_table_ids": row_tables,
        "row_row_indexes": row_rows,
        "row_keys": row_keys,
        "unpacked": _unpacked_numpy(spill, offsets, table_ids, row_indexes),
    }, spill


def _row_positions(row_tables, row_rows, table_ids, row_indexes):
    """Where each ``(table_id, row_index)`` sits in the (non-empty) sorted
    row table.

    Returns ``(positions, found)``; ``positions`` is only meaningful where
    ``found``.  Pairs are searched as one ``table * span + row`` code when
    that cannot overflow; arbitrary int64 ids are first replaced by their
    ranks among the row table's ids (order-preserving, so the codes stay
    sorted; an absent id gets a colliding rank, which ``found`` catches).
    """
    span = int(max(row_rows.max(), row_indexes.max())) + 1
    lowest = int(min(row_rows.min(), row_indexes.min(), row_tables[0], table_ids.min()))
    highest = int(max(row_tables[-1], table_ids.max()))
    if lowest >= 0 and (highest + 1) * span < 2**63:
        row_codes = row_tables * span + row_rows
        codes = table_ids * span + row_indexes
    else:
        distinct_tables = _np.unique(row_tables)
        distinct_rows = _np.unique(row_rows)
        span = len(distinct_rows) + 1
        row_codes = (
            _np.searchsorted(distinct_tables, row_tables) * span
            + _np.searchsorted(distinct_rows, row_rows)
        )
        codes = (
            _np.searchsorted(distinct_tables, table_ids) * span
            + _np.searchsorted(distinct_rows, row_indexes)
        )
    at = _np.minimum(_np.searchsorted(row_codes, codes), len(row_codes) - 1)
    return at, (row_tables[at] == table_ids) & (row_rows[at] == row_indexes)


def _unpacked_stdlib(spill: Spill, offsets, table_ids, row_indexes) -> set[int]:
    """Ids of the values with a posting on a spilled row (see
    :attr:`SegmentBlock.unpacked`), over laid-out posting columns."""
    if not spill:
        return set()
    rows = zip(_view(table_ids, "q"), _view(row_indexes, "q"))
    return {
        bisect_right(offsets, position) - 1
        for position, row in enumerate(rows)
        if row in spill
    }


def _unpacked_numpy(spill: Spill, offsets, table_ids, row_indexes) -> list[int]:
    """:func:`_unpacked_stdlib` as one sorted search of the spilled rows."""
    if not spill or not len(table_ids):
        return []
    rows = _np.array(sorted(spill), dtype=_np.int64)
    _at, hit = _row_positions(rows[:, 0], rows[:, 1], table_ids, row_indexes)
    owners = _np.searchsorted(offsets, _np.flatnonzero(hit), side="right") - 1
    return _np.unique(owners).tolist()


def visible_counts(
    block: SegmentBlock, masked: Collection[int]
) -> tuple[list[int], int]:
    """``(postings per value id, rows)`` of ``block`` outside the ``masked``
    tables, counted on the table-id columns and the offsets — what a live
    index reports for a segment some of whose tables a tombstone hides,
    without walking (or slicing) a single posting list."""
    spilled = sum(table_id not in masked for table_id, _row in block.spill)
    if active_kernel() == "numpy":
        dead = _np.fromiter(masked, _np.int64, len(masked))
        alive = ~_np.isin(_np.frombuffer(block.table_ids, _np.int64), dead)
        starts = _np.frombuffer(block.posting_offsets, _np.int64)[:-1]
        lengths = (
            _np.add.reduceat(alive.astype(_np.int64), starts) if len(starts) else starts
        )
        rows = _np.frombuffer(block.row_table_ids, _np.int64)
        return lengths.tolist(), spilled + int(len(rows) - _np.isin(rows, dead).sum())
    hidden = [table_id in masked for table_id in block.table_ids]
    offsets = block.posting_offsets
    return (
        [end - start - sum(hidden[start:end]) for start, end in zip(offsets, offsets[1:])],
        spilled + sum(table_id not in masked for table_id in block.row_table_ids),
    )


# ----------------------------------------------------------------------
# Merge: adjacent blocks -> one block, masked tables purged
# ----------------------------------------------------------------------
def merge_blocks(
    blocks: Sequence[SegmentBlock], masks: Sequence[Collection[int]]
) -> SegmentBlock:
    """Collapse ``blocks`` (oldest first) into one, dropping masked tables.

    ``masks[i]`` holds the table ids of ``blocks[i]`` that must not survive.
    Per-value posting order of the result is the concatenation order: block
    order, then posting order within a block.  The vocabulary is the union
    in order of first *surviving* appearance — a value whose every posting
    is masked vanishes.
    """
    if not blocks:
        raise IndexError_("cannot merge an empty block list")
    first = blocks[0]
    for block in blocks[1:]:
        if (block.hash_function_name, block.hash_size, block.key_width) != (
            first.hash_function_name,
            first.hash_size,
            first.key_width,
        ):
            raise IndexError_(
                "cannot merge segments hashed differently: "
                f"{first.hash_size}-bit {first.hash_function_name} (key width "
                f"{first.key_width}) and {block.hash_size}-bit "
                f"{block.hash_function_name} (key width {block.key_width})"
            )
    spill = {
        row: super_key
        for block, masked in zip(blocks, masks)
        for row, super_key in block.spill.items()
        if row[0] not in masked
    }
    lane = _merge_numpy if active_kernel() == "numpy" else _merge_stdlib
    values, columns = lane(blocks, masks, first.key_width, spill)
    return SegmentBlock(
        hash_function_name=first.hash_function_name,
        hash_size=first.hash_size,
        key_width=first.key_width,
        values=values,
        spill=spill,
        **columns,
    )


def _merge_stdlib(
    blocks, masks, width: int, spill: Spill
) -> tuple[list[str], dict[str, Any]]:
    """``(the merged vocabulary, the merged columns by name)``, value by
    value over stdlib arrays."""
    # Per merged value, the byte chunks of its four columns in block order.
    chunks: dict[str, tuple[list, list, list, list]] = {}
    rows: list[tuple[int, int, bytes]] = []
    for block, masked in zip(blocks, masks):
        offsets = block.posting_offsets
        table_ids = block.table_ids
        sources = (table_ids, block.row_indexes, block.column_indexes)
        keys = block.posting_keys
        for value_id, value in enumerate(block.values):
            start, end = offsets[value_id], offsets[value_id + 1]
            kept = [(start, end)]
            if masked:
                kept = [
                    (position, position + 1)
                    for position in range(start, end)
                    if table_ids[position] not in masked
                ]
                if not kept:
                    continue
            target = chunks.get(value)
            if target is None:
                target = chunks[value] = ([], [], [], [])
            for low, high in kept:
                for column, source in zip(target, sources):
                    column.append(source[low:high])
                target[3].append(keys[low * width : high * width])
        row_keys = block.row_keys
        for position, (table_id, row_index) in enumerate(
            zip(block.row_table_ids, block.row_row_indexes)
        ):
            if table_id not in masked:
                key = row_keys[position * width : (position + 1) * width]
                rows.append((table_id, row_index, bytes(key)))
    rows.sort()
    offsets = array("q", [0])
    total = 0
    for target in chunks.values():
        total += sum(map(len, target[0]))
        offsets.append(total)
    joined = [
        b"".join(chain.from_iterable(target[column] for target in chunks.values()))
        for column in range(4)
    ]
    return list(chunks), {
        "posting_offsets": offsets,
        "table_ids": joined[0],
        "row_indexes": joined[1],
        "column_indexes": joined[2],
        "posting_keys": joined[3],
        "row_table_ids": array("q", [row[0] for row in rows]),
        "row_row_indexes": array("q", [row[1] for row in rows]),
        "row_keys": b"".join(row[2] for row in rows),
        "unpacked": _unpacked_stdlib(spill, offsets, joined[0], joined[1]),
    }


def _merge_numpy(
    blocks, masks, width: int, spill: Spill
) -> tuple[list[str], dict[str, Any]]:
    """:func:`_merge_stdlib` as whole-column numpy operations."""
    merged_of: dict[str, int] = {}
    parts: list[tuple] = []
    row_parts: list[tuple] = []
    for block, masked in zip(blocks, masks):
        offsets = _np.frombuffer(block.posting_offsets, _np.int64)
        table_ids = _np.frombuffer(block.table_ids, _np.int64)
        row_indexes = _np.frombuffer(block.row_indexes, _np.int64)
        column_indexes = _np.frombuffer(block.column_indexes, _np.int32)
        keys = _np.frombuffer(block.posting_keys, _np.uint8).reshape(-1, width)
        row_tables = _np.frombuffer(block.row_table_ids, _np.int64)
        row_rows = _np.frombuffer(block.row_row_indexes, _np.int64)
        row_keys = _np.frombuffer(block.row_keys, _np.uint8).reshape(-1, width)
        count = len(block.values)
        local = _np.repeat(_np.arange(count), _np.diff(offsets))
        if masked:
            dead = _np.fromiter(masked, _np.int64, len(masked))
            keep = ~_np.isin(table_ids, dead)
            local = local[keep]
            table_ids, row_indexes = table_ids[keep], row_indexes[keep]
            column_indexes, keys = column_indexes[keep], keys[keep]
            survives = (_np.bincount(local, minlength=count) > 0).tolist()
            keep = ~_np.isin(row_tables, dead)
            row_tables, row_rows, row_keys = (
                row_tables[keep],
                row_rows[keep],
                row_keys[keep],
            )
        else:
            survives = [True] * count
        # Local -> merged value ids through the one union dict; a value
        # with no surviving posting here never enters the vocabulary.
        setdefault = merged_of.setdefault
        merged = _np.array(
            [
                setdefault(value, len(merged_of)) if alive else -1
                for value, alive in zip(block.values, survives)
            ],
            dtype=_np.int64,
        )
        parts.append((merged[local], table_ids, row_indexes, column_indexes, keys))
        row_parts.append((row_tables, row_rows, row_keys))
    merged_ids, table_ids, row_indexes, column_indexes, keys = map(
        _np.concatenate, zip(*parts)
    )
    # Stable: equal ids keep block order, then posting order.
    order = _np.argsort(merged_ids, kind="stable")
    offsets = _np.zeros(len(merged_of) + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(merged_ids, minlength=len(merged_of)), out=offsets[1:])
    row_tables, row_rows, row_keys = map(_np.concatenate, zip(*row_parts))
    row_order = _np.lexsort((row_rows, row_tables))
    table_ids, row_indexes = table_ids[order], row_indexes[order]
    return list(merged_of), {
        "posting_offsets": offsets,
        "table_ids": table_ids,
        "row_indexes": row_indexes,
        "column_indexes": column_indexes[order],
        "posting_keys": keys[order],
        "row_table_ids": row_tables[row_order],
        "row_row_indexes": row_rows[row_order],
        "row_keys": row_keys[row_order],
        "unpacked": _unpacked_numpy(spill, offsets, table_ids, row_indexes),
    }
