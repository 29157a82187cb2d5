"""The extended index as one CSR block — in memory and on disk.

A :class:`SegmentBlock` is the one representation of an index (Sections 3
and 5: postings per value plus one super key per row).  It stores the
paper's *per-row* layout: a super key exists once per row, in the row table
— ``(table_id, row_index)`` sorted ascending with a parallel packed key
buffer — and a posting is ``(row ordinal, column)``, the row ordinal being
the posting's row's position in that table.  The vocabulary is kept in
first-seen order and one ``posting_offsets`` array cuts the two posting
columns into per-value posting lists (value ``i`` owns positions
``offsets[i]:offsets[i + 1]``).  The columns are :class:`memoryview` s
(formats ``'q'`` / ``'i'`` / ``'B'``) whatever backs them — a numpy array,
an :class:`array.array`, or a file mapping — so readers iterate Python
integers and the numpy kernels wrap them without a copy.

The paper's "extra join between super keys and PLs" is a gather at fetch
time: :meth:`SegmentBlock.arrays` hands out the columns as numpy arrays and
a posting's table id, row index and super key are ``row_*[ordinal]``
(:class:`~repro.index.inverted.InvertedIndex` runs that gather once per
``fetch_batch`` for the values it has not joined yet, and memoises each
value's view).

Building, editing and writing an index are operations on these columns:

* the bulk build and the ingest buffer lay tables out with
  :func:`repro.index.bulk.layout_block`; a caller holding per-value columns
  and per-row keys (the per-cell reference of the tests) uses
  :meth:`SegmentBlock.from_postings`;
* :func:`merge_blocks` collapses blocks into one, purging masked tables.  It
  reorders the posting columns by **one stable argsort** of the merged value
  ids: equal ids keep block order, then posting order — the concatenation
  order a bulk rebuild over the surviving tables produces — and remaps every
  ordinal through its block's old→new row map.  Compaction merges segments
  with it, and Section 5.4's edits are "merge without the table, plus the
  table rebuilt".

The file format around a block is :mod:`repro.storage.paged`'s.
"""

from __future__ import annotations

from array import array
from typing import Any, Collection, Iterable, NamedTuple, Sequence

import numpy as _np

from ..exceptions import IndexError_
from ..hashing.base import key_width
from ..index.columnar import column_view as _view

#: Rows one block may hold: a posting names its row by an ``int32`` ordinal.
MAX_ROWS = 2**31 - 1


class BlockArrays(NamedTuple):
    """The columns of a block as numpy arrays (zero-copy), of the block's
    typecodes — so a gather out of them exports them too."""

    offsets: Any
    #: Per posting: the row ordinal and the column (``'i'``).
    ordinals: Any
    columns: Any
    #: Per row: table id, row index (``'q'``), and the packed key, one
    #: ``(rows, key_width)`` byte matrix.
    row_tables: Any
    row_rows: Any
    row_keys: Any


class SegmentBlock:
    """The CSR block of one index or segment (see the module docstring)."""

    __slots__ = (
        "hash_function_name",
        "hash_size",
        "key_width",
        "values",
        "posting_offsets",
        "row_ordinals",
        "column_indexes",
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
        row_ordinals: Any,
        column_indexes: Any,
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
        #: Per posting: its row's position in the row table, and its column.
        self.row_ordinals = _view(row_ordinals, "i")
        self.column_indexes = _view(column_indexes, "i")
        #: The row table: ``(table_id, row_index)`` ascending, packed
        #: big-endian keys parallel.
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
            row_ordinals=b"",
            column_indexes=b"",
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
        is sorted and every posting finds its row's ordinal by one sorted
        search.  Raises :class:`ValueError` when a value's three columns
        differ in length, when a key does not fit the packed width, or when
        a posting's row is not among ``rows``.
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
        ordinals = _np.zeros(len(table_ids), dtype=_np.int32)
        if len(table_ids):
            if len(row_tables):
                at, found = _row_positions(
                    row_tables, row_rows, table_ids, row_indexes
                )
            else:
                at = found = _np.zeros(len(table_ids), dtype=bool)
            if not found.all():
                missing = int(_np.flatnonzero(~found)[0])
                raise ValueError(
                    f"a posting of table {int(table_ids[missing])} row "
                    f"{int(row_indexes[missing])} has no row in the row table"
                )
            _fits(len(row_tables))
            ordinals = at.astype(_np.int32)
        return cls(
            hash_function_name=hash_function_name,
            hash_size=hash_size,
            key_width=width,
            values=values,
            posting_offsets=offsets,
            row_ordinals=ordinals,
            column_indexes=column_indexes,
            row_table_ids=row_tables,
            row_row_indexes=row_rows,
            row_keys=row_keys[order],
        )

    def arrays(self) -> BlockArrays:
        """The columns as numpy arrays over the same buffers (no copy)."""
        return BlockArrays(
            _np.frombuffer(self.posting_offsets, "q"),
            _np.frombuffer(self.row_ordinals, "i"),
            _np.frombuffer(self.column_indexes, "i"),
            _np.frombuffer(self.row_table_ids, "q"),
            _np.frombuffer(self.row_row_indexes, "q"),
            _np.frombuffer(self.row_keys, _np.uint8).reshape(-1, self.key_width),
        )

    def num_postings(self) -> int:
        """Number of PL items."""
        return len(self.column_indexes)


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


def _fits(rows: int) -> None:
    """Refuse a row table too long for ``int32`` row ordinals."""
    if rows > MAX_ROWS:
        raise IndexError_(
            f"a block holds at most {MAX_ROWS} rows (postings store int32 "
            f"row ordinals), not {rows}"
        )


def row_ordinals(order: Any) -> Any:
    """Where each row lands in the sorted row table: the inverse of the
    permutation ``order`` that sorts the rows, as ``int32`` ordinals."""
    _fits(len(order))
    ordinals = _np.empty(len(order), dtype=_np.int32)
    ordinals[order] = _np.arange(len(order), dtype=_np.int32)
    return ordinals


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


def visible_counts(block: SegmentBlock, masked: Collection[int]) -> int:
    """Postings of ``block`` outside the ``masked`` tables, counted on the
    row table and the ordinals — what a live index reports for a segment
    some of whose tables a tombstone hides, without walking (or slicing) a
    single posting list."""
    columns = block.arrays()
    dead = _np.fromiter(masked, _np.int64, len(masked))
    alive_rows = ~_np.isin(columns.row_tables, dead)
    return int(alive_rows[columns.ordinals].sum())


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
    values, columns = _merge(blocks, masks)
    return SegmentBlock(
        hash_function_name=first.hash_function_name,
        hash_size=first.hash_size,
        key_width=first.key_width,
        values=values,
        **columns,
    )


def _merge(blocks, masks) -> tuple[list[str], dict[str, Any]]:
    """``(the merged vocabulary, the merged columns by name)``, as
    whole-column numpy operations.

    Every block's surviving rows are numbered after those of the blocks
    before it (masked rows get -1, and so do their postings, which then
    drop out); one argsort of the concatenated row table then places each
    row in the merged table, and the postings' ordinals follow through the
    inverse of that sort."""
    merged_of: dict[str, int] = {}
    parts: list[tuple] = []
    row_parts: list[tuple] = []
    rows_before = 0
    for block, masked in zip(blocks, masks):
        offsets, ordinals, columns, row_tables, row_rows, row_keys = block.arrays()
        count = len(block.values)
        local = _np.repeat(_np.arange(count), _np.diff(offsets))
        if masked:
            dead = _np.fromiter(masked, _np.int64, len(masked))
            alive = ~_np.isin(row_tables, dead)
            # This block's old -> new row map (-1: masked).
            renumbered = _np.cumsum(alive) - 1 + rows_before
            renumbered[~alive] = -1
            ordinals = renumbered[ordinals]
            keep = ordinals >= 0
            local, ordinals, columns = local[keep], ordinals[keep], columns[keep]
            survives = (_np.bincount(local, minlength=count) > 0).tolist()
            row_tables, row_rows, row_keys = (
                row_tables[alive],
                row_rows[alive],
                row_keys[alive],
            )
        else:
            ordinals = ordinals + _np.int64(rows_before)
            survives = [True] * count
        # Local -> merged value ids through the one union dict; a value
        # with no surviving posting here never enters the vocabulary.
        setdefault = merged_of.setdefault
        merged = _np.array(
            [
                setdefault(value, len(merged_of)) if alive_value else -1
                for value, alive_value in zip(block.values, survives)
            ],
            dtype=_np.int64,
        )
        parts.append((merged[local], ordinals, columns))
        row_parts.append((row_tables, row_rows, row_keys))
        rows_before += len(row_tables)
    merged_ids, ordinals, columns = map(_np.concatenate, zip(*parts))
    # Stable: equal ids keep block order, then posting order.
    order = _np.argsort(merged_ids, kind="stable")
    offsets = _np.zeros(len(merged_of) + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(merged_ids, minlength=len(merged_of)), out=offsets[1:])
    row_tables, row_rows, row_keys = map(_np.concatenate, zip(*row_parts))
    row_order = _np.lexsort((row_rows, row_tables))
    return list(merged_of), {
        "posting_offsets": offsets,
        "row_ordinals": row_ordinals(row_order)[ordinals[order]],
        "column_indexes": columns[order],
        "row_table_ids": row_tables[row_order],
        "row_row_indexes": row_rows[row_order],
        "row_keys": row_keys[row_order],
    }
