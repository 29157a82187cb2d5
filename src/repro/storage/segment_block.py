"""The extended index as one CSR block — in memory and on disk.

A :class:`SegmentBlock` is the one representation of an index (Sections 3
and 5: postings per value plus one super key per row).  It holds every
posting in whole columns: the vocabulary in first-seen order, one
``posting_offsets`` array cutting the columns into per-value posting lists
(value ``i`` owns positions ``offsets[i]:offsets[i + 1]``), the three posting
columns, the packed super key of every posting (the vectorized kernels'
input, sliced zero-copy), and the row table — ``(table_id, row_index)``
sorted ascending with a parallel packed key buffer — for point lookups.  The
columns are :class:`memoryview` s (formats ``'q'`` / ``'i'`` / ``'B'``)
whatever backs them — a numpy array, an :class:`array.array`, or a file
mapping — so readers iterate Python integers and the numpy kernels wrap them
without a copy.

Building, editing and writing an index are operations on these columns:

* the bulk build and the ingest buffer lay tables out with
  :func:`repro.index.bulk.layout_block`; a caller holding per-value columns
  and per-row keys (the per-cell reference of the tests) uses
  :meth:`SegmentBlock.from_postings`;
* :func:`merge_blocks` collapses blocks into one, purging masked tables.  It
  reorders all columns by **one stable argsort** of the merged value ids:
  equal ids keep block order, then posting order — the concatenation order a
  bulk rebuild over the surviving tables produces.  Compaction merges
  segments with it, and Section 5.4's edits are "merge without the table,
  plus the table rebuilt".

The file format around a block is :mod:`repro.storage.paged`'s.
"""

from __future__ import annotations

from array import array
from typing import Any, Collection, Iterable, Iterator, Sequence

import numpy as _np

from ..exceptions import IndexError_
from ..hashing.base import key_width


def _view(data: Any, typecode: str) -> memoryview:
    """``data``'s bytes as a flat read-only-or-not view of ``typecode`` items.

    Cast through ``'B'``: a numpy ``int64`` array exports format ``'l'``,
    not ``'q'``, on Linux, and every consumer compares typecodes.  A numpy
    array is flattened first — :class:`memoryview` refuses to cast an
    ``(0, width)`` key matrix ("zeros in shape"), which is what a block
    without postings or rows holds.
    """
    if isinstance(data, _np.ndarray):
        data = data.reshape(-1)
    return memoryview(data).cast("B").cast(typecode)


class SegmentBlock:
    """The CSR block of one index or segment (see the module docstring)."""

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
        #: the row has none).
        self.posting_keys = _view(posting_keys, "B")
        #: The row table: ``(table_id, row_index)`` ascending, keys parallel.
        self.row_table_ids = _view(row_table_ids, "q")
        self.row_row_indexes = _view(row_row_indexes, "q")
        self.row_keys = _view(row_keys, "B")

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
        )

    @classmethod
    def from_postings(
        cls,
        hash_function_name: str,
        hash_size: int,
        postings: Iterable[tuple[str, Any, Any, Any]],
        rows: Iterable[tuple[int, int, int]],
    ) -> "SegmentBlock":
        """The block of per-value posting columns and per-row keys.

        ``postings`` yields ``(value, table_ids, column_indexes,
        row_indexes)`` in vocabulary order (a value without postings, or the
        missing value, is skipped); ``rows`` yields ``(table_id, row_index,
        key)``, a later key of a row replacing an earlier one.  The row table
        is sorted and every posting gets its row's packed key by one sorted
        search.  Raises :class:`ValueError` when a value's three columns
        differ in length, or when a key does not fit the packed width.
        """
        width = key_width(hash_size)
        values: list[str] = []
        columns = []
        for value, *lists in postings:
            if len(set(map(len, lists))) != 1:
                raise ValueError(
                    f"the posting columns of {value!r} have unequal lengths"
                )
            if value and len(lists[0]):
                values.append(value)
                columns.append(lists)
        offsets = _np.zeros(len(columns) + 1, dtype=_np.int64)
        _np.cumsum([len(lists[0]) for lists in columns], out=offsets[1:])
        table_ids, column_indexes, row_indexes = (
            _joined((lists[position] for lists in columns), typecode)
            for position, typecode in enumerate("qiq")
        )
        keys = {(int(table), int(row)): key for table, row, key in rows}
        limit = 1 << 8 * width
        for (table, row), key in keys.items():
            if not 0 <= key < limit:
                raise ValueError(
                    f"the super key of table {table} row {row} is "
                    f"{key.bit_length()} bits wide; a {hash_size}-bit block "
                    f"packs keys of at most {8 * width} bits"
                )
        pairs = _np.array(list(keys), dtype=_np.int64).reshape(-1, 2)
        row_keys = _np.frombuffer(
            b"".join(key.to_bytes(width, "big") for key in keys.values()), _np.uint8
        ).reshape(-1, width)
        order = _np.lexsort((pairs[:, 1], pairs[:, 0]))
        row_tables, row_rows = pairs[order, 0], pairs[order, 1]
        row_keys = row_keys[order]
        # Per-posting keys: one sorted search into the row table, one gather.
        posting_keys = _np.zeros((len(table_ids), width), dtype=_np.uint8)
        if len(row_tables) and len(table_ids):
            at, found = _row_positions(row_tables, row_rows, table_ids, row_indexes)
            posting_keys[found] = row_keys[at[found]]
        return cls(
            hash_function_name=hash_function_name,
            hash_size=hash_size,
            key_width=width,
            values=values,
            posting_offsets=offsets,
            table_ids=table_ids,
            row_indexes=row_indexes,
            column_indexes=column_indexes,
            posting_keys=posting_keys,
            row_table_ids=row_tables,
            row_row_indexes=row_rows,
            row_keys=row_keys,
        )

    def postings(self) -> Iterator[tuple[str, memoryview, memoryview, memoryview]]:
        """``(value, table_ids, column_indexes, row_indexes)`` of every value
        in vocabulary order, the columns zero-copy slices of the block's."""
        bounds = self.posting_offsets
        for value, start, end in zip(self.values, bounds, bounds[1:]):
            yield (
                value,
                self.table_ids[start:end],
                self.column_indexes[start:end],
                self.row_indexes[start:end],
            )


def _block_from_state(state: dict[str, Any]) -> SegmentBlock:
    return SegmentBlock(**state)


def _joined(columns: Iterable[Any], typecode: str) -> Any:
    """Posting columns of any integer sequence type, concatenated into one
    numpy array of ``typecode`` items."""
    return _np.frombuffer(
        b"".join(
            column.tobytes()
            if getattr(column, "typecode", None) == typecode
            or getattr(column, "format", None) == typecode
            else array(typecode, column).tobytes()
            for column in columns
        ),
        _np.int32 if typecode == "i" else _np.int64,
    )


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


def visible_counts(
    block: SegmentBlock, masked: Collection[int]
) -> tuple[list[int], int]:
    """``(postings per value id, rows)`` of ``block`` outside the ``masked``
    tables, counted on the table-id columns and the offsets — what a live
    index reports for a segment some of whose tables a tombstone hides,
    without walking (or slicing) a single posting list."""
    dead = _np.fromiter(masked, _np.int64, len(masked))
    alive = ~_np.isin(_np.frombuffer(block.table_ids, _np.int64), dead)
    starts = _np.frombuffer(block.posting_offsets, _np.int64)[:-1]
    lengths = (
        _np.add.reduceat(alive.astype(_np.int64), starts) if len(starts) else starts
    )
    rows = _np.frombuffer(block.row_table_ids, _np.int64)
    return lengths.tolist(), int(len(rows) - _np.isin(rows, dead).sum())


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
    values, columns = _merge(blocks, masks, first.key_width)
    return SegmentBlock(
        hash_function_name=first.hash_function_name,
        hash_size=first.hash_size,
        key_width=first.key_width,
        values=values,
        **columns,
    )


def _merge(blocks, masks, width: int) -> tuple[list[str], dict[str, Any]]:
    """``(the merged vocabulary, the merged columns by name)``, as
    whole-column numpy operations."""
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
    return list(merged_of), {
        "posting_offsets": offsets,
        "table_ids": table_ids[order],
        "row_indexes": row_indexes[order],
        "column_indexes": column_indexes[order],
        "posting_keys": keys[order],
        "row_table_ids": row_tables[row_order],
        "row_row_indexes": row_rows[row_order],
        "row_keys": row_keys[row_order],
    }
