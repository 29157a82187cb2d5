"""The extended single-attribute inverted index (Sections 3 and 5).

:class:`InvertedIndex` stores two structures:

* ``postings``: value -> posting list (the classic single-attribute inverted
  index of Eq. 4), and
* ``super_keys``: (table_id, row_index) -> int, the per-row super key that
  turns the index into MATE's extended index.

Two storage layouts are supported (see :mod:`repro.index.columnar`):

* ``columnar`` (the default) — each value's postings live in three parallel
  packed integer arrays and the super keys in a fixed-width packed byte
  buffer; ``fetch_batch`` returns struct-of-arrays
  :class:`~repro.index.columnar.FetchBlock` objects that reference the packed
  columns directly (zero copy), with memoised super-key columns and table
  runs so repeated fetches do no per-item work;
* ``legacy`` — one :class:`~repro.index.posting.PostingListItem` NamedTuple
  per PL item and a dictionary of super keys, the layout of the original
  reproduction (kept for comparison benchmarks and old persisted data).

Both layouts expose the exact same query surface, and ``fetch`` returns
byte-identical :class:`~repro.index.posting.FetchedItem` lists either way.

The index is deliberately storage-backend agnostic: it is an in-memory object
that can be persisted/restored through :mod:`repro.storage`.  Its query
surface is exactly what Algorithm 1 needs:

* ``fetch`` / ``fetch_batch`` — retrieve all PL items (with super keys) for a
  set of probe values (line 4),
* ``posting_list`` / ``posting_columns`` / ``super_key`` accessors,
* mutation operations used by the maintenance layer (Section 5.4).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator, Sequence

from ..datamodel import MISSING
from ..exceptions import IndexClosedError, IndexError_
from .columnar import (
    LAYOUTS,
    ColumnarPostingList,
    DictSuperKeys,
    FetchBlock,
    PackedSuperKeys,
    blocks_from_fetch,
)
from .posting import FetchedItem, PostingListItem


class InvertedIndex:
    """Value -> posting-list mapping plus per-row super keys."""

    def __init__(
        self,
        hash_function_name: str = "xash",
        hash_size: int = 128,
        layout: str = "columnar",
    ):
        if layout not in LAYOUTS:
            raise IndexError_(
                f"unknown posting layout {layout!r}; expected one of {LAYOUTS}"
            )
        #: Name of the hash function the super keys were generated with.
        self.hash_function_name = hash_function_name
        #: Width of the stored super keys in bits.
        self.hash_size = hash_size
        #: Posting-list storage layout: ``"columnar"`` or ``"legacy"``.
        self.layout = layout
        self._columnar = layout == "columnar"
        if self._columnar:
            self._postings: dict[str, ColumnarPostingList] = {}
            self._super_keys: PackedSuperKeys | DictSuperKeys = PackedSuperKeys(
                hash_size
            )
        else:
            self._postings = defaultdict(list)  # type: ignore[assignment]
            self._super_keys = DictSuperKeys()
        self._table_rows: dict[int, set[int]] = defaultdict(set)
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called on this index."""
        return self._closed

    def close(self) -> None:
        """Refuse all further fetches and mutations (idempotent).

        The ingestion layer seals write buffers this way; any later
        ``fetch`` / ``fetch_batch`` / mutation raises the typed
        :class:`~repro.exceptions.IndexClosedError` instead of whatever
        incidental error a torn-down index would produce.
        """
        self._closed = True

    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise IndexClosedError(
                f"{operation} on a closed index (layout {self.layout!r}); "
                "the index was closed or sealed and no longer serves requests"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct indexed values."""
        return len(self._postings)

    def __contains__(self, value: str) -> bool:
        return value in self._postings

    def values(self) -> Iterator[str]:
        """Iterate over the distinct indexed values."""
        return iter(self._postings)

    def num_posting_items(self) -> int:
        """Total number of PL items across all values."""
        return sum(len(items) for items in self._postings.values())

    def num_rows(self) -> int:
        """Number of rows that own a super key."""
        return len(self._super_keys)

    def indexed_tables(self) -> set[int]:
        """Return the ids of all tables with at least one indexed row."""
        return set(self._table_rows)

    def posting_list(self, value: str) -> list[PostingListItem]:
        """Return the posting list of ``value`` (empty when not indexed)."""
        stored = self._postings.get(value)
        if stored is None:
            return []
        if self._columnar:
            return stored.items()
        return list(stored)

    def posting_columns(self, value: str) -> ColumnarPostingList | None:
        """Return the packed posting columns of ``value`` (columnar layout).

        ``None`` when the value is not indexed.  Raises on the legacy layout,
        which has no packed columns.
        """
        if not self._columnar:
            raise IndexError_(
                "posting_columns requires the columnar layout "
                f"(this index uses {self.layout!r})"
            )
        return self._postings.get(value)

    def iter_posting_copies(self) -> Iterator[tuple[str, ColumnarPostingList]]:
        """Every value with an independent copy of its packed posting
        columns, in :meth:`values` order (columnar layout)."""
        if not self._columnar:
            raise IndexError_(
                "iter_posting_copies requires the columnar layout "
                f"(this index uses {self.layout!r})"
            )
        for value, columns in self._postings.items():
            yield value, columns.copy()

    def posting_list_length(self, value: str) -> int:
        """Return the number of PL items for ``value`` without copying."""
        stored = self._postings.get(value)
        return 0 if stored is None else len(stored)

    def super_key(self, table_id: int, row_index: int) -> int:
        """Return the super key of a row."""
        stored = self._super_keys.get((table_id, row_index), None)
        if stored is None:
            raise IndexError_(
                f"no super key stored for table {table_id} row {row_index}"
            )
        return stored

    def has_row(self, table_id: int, row_index: int) -> bool:
        """Return whether a super key is stored for the row."""
        return (table_id, row_index) in self._super_keys

    def iter_super_keys(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over ``(table_id, row_index, super_key)`` triples."""
        for (table_id, row_index), super_key in self._super_keys.items():
            yield table_id, row_index, super_key

    # ------------------------------------------------------------------
    # Mutation (used by IndexBuilder and the maintenance layer)
    # ------------------------------------------------------------------
    def add_posting(
        self, value: str, table_id: int, column_index: int, row_index: int
    ) -> None:
        """Add a single PL item for ``value``.  Missing values are skipped."""
        self._ensure_open("add_posting")
        if value == MISSING:
            return
        if self._columnar:
            columns = self._postings.get(value)
            if columns is None:
                columns = self._postings[value] = ColumnarPostingList()
            columns.append(table_id, column_index, row_index)
        else:
            self._postings[value].append(
                PostingListItem(
                    table_id=table_id,
                    column_index=column_index,
                    row_index=row_index,
                )
            )
        self._table_rows[table_id].add(row_index)

    def set_posting_columns(
        self, value: str, columns: ColumnarPostingList
    ) -> None:
        """Install pre-packed posting columns for ``value`` (bulk loading).

        Used by storage backends restoring a packed layout; requires the
        columnar layout.
        """
        self._ensure_open("set_posting_columns")
        if not self._columnar:
            raise IndexError_(
                "set_posting_columns requires the columnar layout "
                f"(this index uses {self.layout!r})"
            )
        if value == MISSING or not len(columns):
            return
        self._postings[value] = columns
        table_rows = self._table_rows
        for table_id, row_index in zip(columns.table_ids, columns.row_indexes):
            table_rows[table_id].add(row_index)

    def set_super_key(self, table_id: int, row_index: int, super_key: int) -> None:
        """Store (or replace) the super key of a row."""
        self._ensure_open("set_super_key")
        self._super_keys.set((table_id, row_index), super_key)
        self._table_rows[table_id].add(row_index)

    def or_into_super_key(self, table_id: int, row_index: int, value_hash: int) -> int:
        """OR a new value hash into an existing row super key (column insert)."""
        self._ensure_open("or_into_super_key")
        updated = self._super_keys.or_into((table_id, row_index), value_hash)
        self._table_rows[table_id].add(row_index)
        return updated

    def _remove_postings_where(self, keep) -> int:
        """Filter every posting list by ``keep(table_id, column_index, row_index)``."""
        removed = 0
        empty_values = []
        if self._columnar:
            for value, columns in self._postings.items():
                kept, dropped = columns.filtered(keep)
                removed += dropped
                if len(kept):
                    self._postings[value] = kept
                else:
                    empty_values.append(value)
        else:
            for value, items in self._postings.items():
                kept_items = [
                    item
                    for item in items
                    if keep(item.table_id, item.column_index, item.row_index)
                ]
                removed += len(items) - len(kept_items)
                if kept_items:
                    self._postings[value] = kept_items
                else:
                    empty_values.append(value)
        for value in empty_values:
            del self._postings[value]
        return removed

    def remove_table(self, table_id: int) -> int:
        """Remove every posting and super key of ``table_id``.

        Returns the number of removed PL items.
        """
        self._ensure_open("remove_table")
        removed = self._remove_postings_where(
            lambda item_table, _column, _row: item_table != table_id
        )
        for row_index in self._table_rows.pop(table_id, set()):
            self._super_keys.pop((table_id, row_index))
        return removed

    def remove_row(self, table_id: int, row_index: int) -> int:
        """Remove the postings and super key of a single row."""
        self._ensure_open("remove_row")
        removed = self._remove_postings_where(
            lambda item_table, _column, item_row: not (
                item_table == table_id and item_row == row_index
            )
        )
        self._super_keys.pop((table_id, row_index))
        rows = self._table_rows.get(table_id)
        if rows is not None:
            rows.discard(row_index)
            if not rows:
                del self._table_rows[table_id]
        return removed

    def remove_column(self, table_id: int, column_index: int) -> int:
        """Remove the postings of one column (super keys must be rebuilt by the caller)."""
        self._ensure_open("remove_column")
        return self._remove_postings_where(
            lambda item_table, item_column, _row: not (
                item_table == table_id and item_column == column_index
            )
        )

    # ------------------------------------------------------------------
    # Discovery-phase retrieval
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch the postings of ``values`` as struct-of-arrays blocks.

        One block per probed value with at least one PL item, in first-seen
        value order; duplicate and missing probe values are skipped.  On the
        columnar layout the blocks reference the packed columns directly and
        reuse the memoised super-key columns, so a warm ``fetch_batch`` does
        no per-item work at all.
        """
        self._ensure_open("fetch_batch")
        if self._columnar:
            blocks: list[FetchBlock] = []
            append = blocks.append
            postings = self._postings
            store = self._super_keys
            for value in dict.fromkeys(values):
                if value == MISSING:
                    continue
                columns = postings.get(value)
                if columns is None or not len(columns):
                    continue
                # Prefer the memoised packed super-key buffer (the kernel
                # input); the integer column is only built when the store
                # cannot pack (legacy dict store / spilled oversize key).
                packed = columns.super_key_packed(store)
                if packed is not None:
                    append(
                        FetchBlock(
                            value,
                            columns.table_ids,
                            columns.column_indexes,
                            columns.row_indexes,
                            None,
                            columns.runs,
                            super_key_bytes=packed,
                            key_width=store.width_bytes,
                        )
                    )
                else:
                    append(
                        FetchBlock(
                            value,
                            columns.table_ids,
                            columns.column_indexes,
                            columns.row_indexes,
                            columns.super_key_column(store),
                            columns.runs,
                        )
                    )
            return blocks
        return blocks_from_fetch(self.fetch(values))

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Fetch the PL items (with super keys) for every value in ``values``.

        This is ``fetch_PLs`` of Algorithm 1 (line 4).  Duplicate probe values
        are fetched only once.  The output is identical across layouts.
        """
        self._ensure_open("fetch")
        if not self._columnar:
            fetched: list[FetchedItem] = []
            for value in dict.fromkeys(values):
                if value == MISSING:
                    continue
                for item in self._postings.get(value, ()):
                    super_key = self._super_keys.get(
                        (item.table_id, item.row_index), 0
                    )
                    fetched.append(FetchedItem.from_posting(value, item, super_key))
            return fetched
        fetched = []
        extend = fetched.extend
        for block in self.fetch_batch(values):
            extend(block)
        return fetched

    def fetch_grouped_by_table(
        self, values: Iterable[str]
    ) -> dict[int, list[FetchedItem]]:
        """Fetch PL items and group them by table id (line 5 of Algorithm 1)."""
        grouped: dict[int, list[FetchedItem]] = defaultdict(list)
        for item in self.fetch(values):
            grouped[item.table_id].append(item)
        return dict(grouped)

    def posting_count_for_values(self, values: Sequence[str]) -> int:
        """Total number of PL items the given probe values would fetch."""
        return sum(
            self.posting_list_length(value)
            for value in dict.fromkeys(values)
            if value != MISSING
        )
