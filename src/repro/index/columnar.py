"""Columnar (struct-of-arrays) posting lists.

One Python record per PL item, materialised again on every fetch, is the
per-row object overhead that in-memory analytics engines eliminate with
columnar, array-packed layouts.  This module holds the packed structures
:class:`~repro.index.inverted.InvertedIndex` is made of:

* :class:`ColumnarPostingList` — the postings of one value as three parallel
  flat integer arrays (``array('q')`` table ids, ``array('i')`` column
  indexes, ``array('q')`` row indexes) plus memoised *table runs* and
  *super-key columns* so repeated fetches do no per-item work;
* :class:`PackedSuperKeys` — the per-row super keys packed into one
  fixed-width byte buffer (``hash_size / 8`` bytes per row) instead of a
  dictionary of arbitrary-precision integers (with a spill map for keys that
  exceed the configured width);
* :class:`FetchBlock` — the struct-of-arrays result of ``fetch_batch``: one
  block per probed value, referencing the packed columns directly (zero-copy)
  with the super-key column attached;
* :class:`TableBlock` — the per-candidate-table view Algorithm 1's filtering
  loop iterates (lines 4-9) on the table-at-a-time path: row indexes and
  value runs assembled run-by-run, every other column on demand.

Which consumer reads which structure: with a packed buffer on every fetched
block, a request keeps its :class:`FetchBlock` s and :mod:`repro.index.batch`
turns their columns and memoised coverage bitmaps into request-level arrays —
no :class:`TableBlock` is built.  Row-filter mode ``oracle`` and a block
unpacked by a spilled key regroup the fetch blocks with
:func:`group_into_table_blocks`.

Every structure can still be read as per-item records
(:meth:`FetchBlock.items`, :meth:`ColumnarPostingList.items`), which is what
``InvertedIndex.fetch`` returns.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Sequence

from .posting import FetchedItem, PostingListItem

#: A run of consecutive postings of one value that share a table id:
#: ``(table_id, start, end)`` half-open positions into the packed columns.
TableRun = tuple[int, int, int]

#: A run of consecutive postings that share a probe value:
#: ``(value, start, end)`` half-open positions into a table block's columns.
ValueRun = tuple[str, int, int]

#: Entries a fetch block's coverage memo holds before it starts over.  Every
#: entry is two bitmaps of the block's length and cached blocks outlive the
#: request, so without a bound each distinct key tuple ever probed against a
#: hot value would stay behind; a dropped entry costs one vector pass.
COVERAGE_MEMO_ENTRIES = 64


def unpack_super_keys(packed, width_bytes: int) -> list[int]:
    """Materialise a packed super-key buffer back into a list of integers."""
    from_bytes = int.from_bytes
    return [
        from_bytes(packed[position : position + width_bytes], "big")
        for position in range(0, len(packed), width_bytes)
    ]


def compute_table_runs(table_ids: Sequence[int]) -> list[TableRun]:
    """Return the maximal runs of equal consecutive table ids.

    Postings are appended in corpus-scan order (table by table), so a value's
    ``table_ids`` column consists of few long runs; grouping by table then
    costs one slice copy per run instead of one append per item.
    """
    runs: list[TableRun] = []
    start = 0
    previous: int | None = None
    position = 0
    for position, table_id in enumerate(table_ids):
        if table_id != previous:
            if previous is not None:
                runs.append((previous, start, position))
            previous = table_id
            start = position
    if previous is not None:
        runs.append((previous, start, position + 1))
    return runs


class PackedSuperKeys:
    """Row super keys packed into one fixed-width byte buffer.

    Each row owns one ``width_bytes`` slot in a shared :class:`bytearray`
    (big-endian), addressed through a ``(table_id, row_index) -> slot``
    dictionary; freed slots are recycled.  Keys too wide for the configured
    hash size spill into a plain dictionary so that correctness never depends
    on the declared width.
    """

    __slots__ = ("width_bytes", "epoch", "_slots", "_buffer", "_free", "_spill")

    def __init__(self, hash_size_bits: int = 128):
        #: Bytes per packed super key (the configured hash width).
        self.width_bytes = max(1, (int(hash_size_bits) + 7) // 8)
        #: Bumped on every mutation; consumers key memoised data on it.
        self.epoch = 0
        self._slots: dict[tuple[int, int], int] = {}
        self._buffer = bytearray()
        self._free: list[int] = []
        self._spill: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._slots) + len(self._spill)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._slots or key in self._spill

    def _fits(self, value: int) -> bool:
        return 0 <= value < (1 << (8 * self.width_bytes))

    def get(self, key: tuple[int, int], default: int | None = 0) -> int | None:
        """Return the super key stored under ``key`` (or ``default``)."""
        slot = self._slots.get(key)
        if slot is None:
            return self._spill.get(key, default)
        offset = slot * self.width_bytes
        return int.from_bytes(
            self._buffer[offset : offset + self.width_bytes], "big"
        )

    def set(self, key: tuple[int, int], value: int) -> None:
        """Store (or replace) one super key in its packed slot."""
        self.epoch += 1
        if not self._fits(value):
            slot = self._slots.pop(key, None)
            if slot is not None:
                self._free.append(slot)
            self._spill[key] = value
            return
        slot = self._slots.get(key)
        if slot is None:
            self._spill.pop(key, None)
            if self._free:
                slot = self._free.pop()
            else:
                slot = len(self._buffer) // self.width_bytes
                self._buffer.extend(bytes(self.width_bytes))
            self._slots[key] = slot
        offset = slot * self.width_bytes
        self._buffer[offset : offset + self.width_bytes] = value.to_bytes(
            self.width_bytes, "big"
        )

    def or_into(self, key: tuple[int, int], value_hash: int) -> int:
        """OR ``value_hash`` into the stored key (0 when absent); return it."""
        updated = (self.get(key, 0) or 0) | value_hash
        self.set(key, updated)
        return updated

    def pop(self, key: tuple[int, int]) -> None:
        """Drop one super key, recycling its packed slot (no-op when absent)."""
        self.epoch += 1
        slot = self._slots.pop(key, None)
        if slot is not None:
            self._free.append(slot)
        else:
            self._spill.pop(key, None)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Iterate over ``((table_id, row_index), super_key)`` pairs."""
        width = self.width_bytes
        buffer = self._buffer
        for key, slot in self._slots.items():
            offset = slot * width
            yield key, int.from_bytes(buffer[offset : offset + width], "big")
        yield from self._spill.items()

    def get_many(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> list[int]:
        """Return the super keys of the given rows (0 when absent), in order."""
        slots = self._slots
        spill = self._spill
        buffer = self._buffer
        width = self.width_bytes
        from_bytes = int.from_bytes
        out: list[int] = []
        append = out.append
        for key in zip(table_ids, row_indexes):
            slot = slots.get(key)
            if slot is None:
                append(spill.get(key, 0))
            else:
                offset = slot * width
                append(from_bytes(buffer[offset : offset + width], "big"))
        return out

    def get_many_packed(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> bytes | None:
        """Return the packed super-key column of the given rows, in order.

        One ``width_bytes`` big-endian slot per row (zeros when absent),
        assembled with C-level slice copies from the shared buffer — the
        input of the vectorized prefilter kernels.  ``None`` when any
        requested row spilled (a key wider than the configured hash size):
        the packed representation would be lossy, so consumers fall back to
        the integer column.
        """
        width = self.width_bytes
        slots = self._slots
        spill = self._spill
        buffer = self._buffer
        out = bytearray(len(table_ids) * width)
        position = 0
        for key in zip(table_ids, row_indexes):
            slot = slots.get(key)
            if slot is None:
                if spill and key in spill:
                    return None
            else:
                offset = slot * width
                out[position : position + width] = buffer[offset : offset + width]
            position += width
        return bytes(out)


class ColumnarPostingList:
    """The postings of one value as three parallel packed integer arrays.

    ``table_ids`` and ``row_indexes`` are 64-bit (``'q'``), ``column_indexes``
    32-bit (``'i'``).  Two memoisations make repeated fetches cheap: the table
    *runs* (keyed by the item count, which only changes when postings change)
    and the *super-key column* (keyed additionally by the identity and epoch
    of the super-key store it was computed from, so shard-local and central
    stores never cross-contaminate).
    """

    __slots__ = (
        "table_ids",
        "column_indexes",
        "row_indexes",
        "_runs_cache",
        "_super_keys_cache",
        "_packed_cache",
    )

    def __init__(self) -> None:
        self.table_ids = array("q")
        self.column_indexes = array("i")
        self.row_indexes = array("q")
        self._runs_cache: tuple[int, list[TableRun]] | None = None
        self._super_keys_cache: tuple[object, int, int, list[int]] | None = None
        self._packed_cache: tuple[object, int, int, bytes | None] | None = None

    def __len__(self) -> int:
        return len(self.table_ids)

    def __getstate__(self):
        # The memo caches are derived data; a pickled/deep-copied posting
        # list must not drag (dead) super-key stores along with it.
        return (self.table_ids, self.column_indexes, self.row_indexes)

    def __setstate__(self, state) -> None:
        self.table_ids, self.column_indexes, self.row_indexes = state
        self._runs_cache = None
        self._super_keys_cache = None
        self._packed_cache = None

    def append(self, table_id: int, column_index: int, row_index: int) -> None:
        """Append one posting to the packed columns."""
        self.table_ids.append(table_id)
        self.column_indexes.append(column_index)
        self.row_indexes.append(row_index)

    def item(self, position: int) -> PostingListItem:
        """Materialise the posting at ``position`` as a classic record."""
        return PostingListItem(
            table_id=self.table_ids[position],
            column_index=self.column_indexes[position],
            row_index=self.row_indexes[position],
        )

    def items(self) -> list[PostingListItem]:
        """Materialise every posting as a classic per-item record."""
        return [
            PostingListItem(table_id, column_index, row_index)
            for table_id, column_index, row_index in zip(
                self.table_ids, self.column_indexes, self.row_indexes
            )
        ]

    def runs(self) -> list[TableRun]:
        """The memoised table runs of this posting list."""
        count = len(self.table_ids)
        cached = self._runs_cache
        if cached is not None and cached[0] == count:
            return cached[1]
        runs = compute_table_runs(self.table_ids)
        self._runs_cache = (count, runs)
        return runs

    def super_key_column(
        self, store: PackedSuperKeys
    ) -> list[int]:
        """The memoised super-key column of this posting list under ``store``.

        Valid while the store object, its epoch, and the item count are
        unchanged; any posting append or super-key mutation recomputes.
        """
        count = len(self.table_ids)
        cached = self._super_keys_cache
        if (
            cached is not None
            and cached[0] is store
            and cached[1] == store.epoch
            and cached[2] == count
        ):
            return cached[3]
        column = store.get_many(self.table_ids, self.row_indexes)
        self._super_keys_cache = (store, store.epoch, count, column)
        return column

    def super_key_packed(self, store: PackedSuperKeys):
        """The memoised *packed* super-key column of this list under ``store``.

        ``None`` when a posting's row holds a spilled oversize key — the
        negative answer is memoised too, so
        cache-wrapped indexes re-serving the same block never re-materialise
        the column, and the kernel path always sees one stable buffer per
        (posting list, store, epoch) triple.
        """
        count = len(self.table_ids)
        cached = self._packed_cache
        if (
            cached is not None
            and cached[0] is store
            and cached[1] == store.epoch
            and cached[2] == count
        ):
            return cached[3]
        packed = store.get_many_packed(self.table_ids, self.row_indexes)
        self._packed_cache = (store, store.epoch, count, packed)
        return packed

    def filtered(
        self, keep: Callable[[int, int, int], bool]
    ) -> tuple["ColumnarPostingList", int]:
        """Return ``(kept postings, removed count)`` under the predicate.

        Returns ``self`` unchanged (and 0) when nothing is removed, so the
        memoised runs and super-key columns survive no-op maintenance.
        """
        kept = ColumnarPostingList()
        removed = 0
        for table_id, column_index, row_index in zip(
            self.table_ids, self.column_indexes, self.row_indexes
        ):
            if keep(table_id, column_index, row_index):
                kept.append(table_id, column_index, row_index)
            else:
                removed += 1
        if removed == 0:
            return self, 0
        return kept, removed

    def copy(self) -> "ColumnarPostingList":
        """Return an independent copy of the packed columns (C-level memcpy)."""
        copied = ColumnarPostingList()
        copied.table_ids = array("q", self.table_ids)
        copied.column_indexes = array("i", self.column_indexes)
        copied.row_indexes = array("q", self.row_indexes)
        return copied

    @classmethod
    def from_columns(
        cls,
        table_ids: Iterable[int],
        column_indexes: Iterable[int],
        row_indexes: Iterable[int],
    ) -> "ColumnarPostingList":
        """Build a posting list directly from packed (or packable) columns."""
        columns = cls()
        columns.table_ids.extend(table_ids)
        columns.column_indexes.extend(column_indexes)
        columns.row_indexes.extend(row_indexes)
        if not (
            len(columns.table_ids)
            == len(columns.column_indexes)
            == len(columns.row_indexes)
        ):
            raise ValueError("posting columns must have equal lengths")
        return columns


class FetchBlock:
    """Struct-of-arrays fetch result of one probe value.

    The posting columns reference the index's packed arrays directly (no
    copy); ``super_keys`` is the per-posting super-key column and ``runs`` the
    table runs used to regroup the block by candidate table — given as a
    list, or as the callable that yields it (a posting list's memoised
    :meth:`ColumnarPostingList.runs`), called when a consumer first asks:
    the request-level array path never does.  Blocks are snapshots: index
    mutations invalidate them (callers such as the posting-list cache drop
    blocks on mutation).

    When the index's super-key store can pack, the block instead carries the
    fixed-width buffer (``super_key_bytes`` / ``key_width``) that the
    vectorized prefilter kernels consume directly; the integer
    ``super_keys`` column is then materialised lazily on first access, so
    the kernel hot path never converts a single key.
    """

    __slots__ = ("value", "table_ids", "column_indexes", "row_indexes",
                 "_super_keys", "super_key_bytes", "key_width", "_runs",
                 "_cov_cache")

    def __init__(
        self,
        value: str,
        table_ids: Sequence[int],
        column_indexes: Sequence[int],
        row_indexes: Sequence[int],
        super_keys: Sequence[int] | None,
        runs: Sequence[TableRun] | Callable[[], Sequence[TableRun]],
        *,
        super_key_bytes=None,
        key_width: int | None = None,
    ):
        self.value = value
        self.table_ids = table_ids
        self.column_indexes = column_indexes
        self.row_indexes = row_indexes
        if super_keys is None and super_key_bytes is None:
            raise ValueError(
                "a FetchBlock needs super_keys or a packed super_key_bytes buffer"
            )
        self._super_keys = super_keys
        self.super_key_bytes = super_key_bytes
        self.key_width = key_width
        self._runs = runs
        self._cov_cache: dict | None = None

    @property
    def runs(self) -> Sequence[TableRun]:
        """The table runs of the block (computed on first access when the
        block was handed their source instead)."""
        runs = self._runs
        if callable(runs):
            runs = self._runs = runs()
        return runs

    def entry_coverage(
        self, key_super_key: int, length_shift: int | None
    ) -> tuple[bytes, bytes | None]:
        """Memoised :func:`~repro.index.kernels.entry_coverage` of this block.

        The vector pass over the whole posting column runs once per key
        entry and every candidate table holding a slice of this fetch block
        reuses the bitmaps — that amortisation is what makes the array path
        beat the row loop even on few-row candidate tables.  Requires the
        packed buffer (``super_key_bytes``).
        """
        cache = self._coverage_memo(1)
        token = (key_super_key, length_shift)
        hit = cache.get(token)
        if hit is None:
            from .kernels import entry_coverage

            hit = cache[token] = entry_coverage(
                self.super_key_bytes,
                self.key_width,
                key_super_key,
                length_shift,
            )
        return hit

    def _coverage_memo(self, room: int) -> dict:
        """The coverage memo, started over when ``room`` more entries would
        take it past :data:`COVERAGE_MEMO_ENTRIES` — wholesale, so what the
        current request adds afterwards stays together."""
        cache = self._cov_cache
        if cache is None or len(cache) + room > COVERAGE_MEMO_ENTRIES:
            cache = self._cov_cache = {}
        return cache

    def query_coverage(
        self, entries, length_shift: int | None
    ) -> list[tuple[bytes, bytes | None]]:
        """All of a query value's entry bitmaps, memoised as one list.

        ``entries`` is the query key map's entry list for this block's value;
        the memo keeps a reference to it and matches by identity (safe: a
        held reference cannot be recycled), so the per-run cost inside one
        query drops to a single dict hit even for multi-entry values.
        """
        cache = self._cov_cache
        token = ("query", length_shift)
        hit = cache.get(token) if cache is not None else None
        if hit is not None and hit[0] is entries:
            return hit[1]
        # Room for all of this query's entries first, so they stay together.
        self._coverage_memo(len(entries) + 1)
        per_level = [
            self.entry_coverage(key_super_key, length_shift)
            for _key_tuple, key_super_key in entries
        ]
        self._coverage_memo(1)[token] = (entries, per_level)
        return per_level

    @property
    def super_keys(self) -> Sequence[int]:
        """The integer super-key column (materialised lazily when packed)."""
        column = self._super_keys
        if column is None:
            column = self._super_keys = unpack_super_keys(
                self.super_key_bytes, self.key_width
            )
        return column

    def __len__(self) -> int:
        return len(self.row_indexes)

    def __iter__(self) -> Iterator[FetchedItem]:
        value = self.value
        for table_id, column_index, row_index, super_key in zip(
            self.table_ids, self.column_indexes, self.row_indexes, self.super_keys
        ):
            yield FetchedItem(value, table_id, column_index, row_index, super_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FetchBlock):
            return NotImplemented
        return self.value == other.value and self.items() == other.items()

    def __repr__(self) -> str:
        return f"FetchBlock(value={self.value!r}, items={len(self)})"

    def items(self) -> list[FetchedItem]:
        """Materialise the block as classic per-item fetch records."""
        return list(self)

    @classmethod
    def empty(cls, value: str) -> "FetchBlock":
        """An empty block (used to cache negative fetch results)."""
        return cls(value, (), (), (), (), ())


class TableBlock:
    """All fetched postings of one candidate table (table-at-a-time path).

    ``row_indexes`` and ``value_runs`` (maximal runs of equal consecutive
    probe values, known for free at assembly time) are kept eagerly.  The
    other columns — ``super_keys`` for the per-row loop, ``column_indexes``
    for :meth:`items` — are only assembled, with slice copies from the fetch
    blocks, when asked for.
    """

    __slots__ = ("table_id", "row_indexes", "value_runs",
                 "_column_indexes", "_super_keys", "_pending")

    def __init__(self, table_id: int):
        self.table_id = table_id
        self.row_indexes: list[int] = []
        #: Maximal runs of equal consecutive probe values.
        self.value_runs: list[ValueRun] = []
        self._column_indexes: list[int] = []
        self._super_keys: list[int] = []
        #: Runs not yet copied into the two columns above.
        self._pending: list[tuple[FetchBlock, int, int]] = []

    def __len__(self) -> int:
        return len(self.row_indexes)

    def _copy_pending(self) -> None:
        for block, start, end in self._pending:
            self._column_indexes.extend(block.column_indexes[start:end])
            self._super_keys.extend(block.super_keys[start:end])
        self._pending.clear()

    @property
    def values(self) -> list[str]:
        """The probe value of every posting (``value_runs``, expanded)."""
        return [
            value
            for value, start, end in self.value_runs
            for _ in range(start, end)
        ]

    @property
    def column_indexes(self) -> list[int]:
        """The column index of every posting."""
        self._copy_pending()
        return self._column_indexes

    @property
    def super_keys(self) -> list[int]:
        """The integer super-key column."""
        self._copy_pending()
        return self._super_keys

    def _note_run(self, value: str, position: int, count: int) -> None:
        runs = self.value_runs
        if runs and runs[-1][0] == value and runs[-1][2] == position:
            runs[-1] = (value, runs[-1][1], position + count)
        else:
            runs.append((value, position, position + count))

    def extend_run(self, block: FetchBlock, start: int, end: int) -> None:
        """Append one table run of ``block``."""
        count = end - start
        position = len(self.row_indexes)
        self.row_indexes.extend(block.row_indexes[start:end])
        self._note_run(block.value, position, count)
        self._pending.append((block, start, end))

    def items(self) -> list[FetchedItem]:
        """Materialise the block as classic per-item fetch records."""
        return [
            FetchedItem(value, self.table_id, column_index, row_index, super_key)
            for value, column_index, row_index, super_key in zip(
                self.values, self.column_indexes, self.row_indexes, self.super_keys
            )
        ]


def group_into_table_blocks(blocks: Iterable[FetchBlock]) -> dict[int, TableBlock]:
    """Regroup per-value fetch blocks into per-table blocks (line 5 of Alg. 1).

    Preserves the fetch order exactly: per probed value in first-seen order,
    per posting in insertion order — the grouping of
    ``fetch_grouped_by_table``, minus the per-item records.
    """
    grouped: dict[int, TableBlock] = {}
    for block in blocks:
        for table_id, start, end in block.runs:
            table_block = grouped.get(table_id)
            if table_block is None:
                table_block = grouped[table_id] = TableBlock(table_id)
            table_block.extend_run(block, start, end)
    return grouped


def fetch_table_blocks(index, values: Iterable[str]) -> dict[int, TableBlock]:
    """Fetch ``values`` from any index and group the postings by table."""
    return group_into_table_blocks(index.fetch_batch(values))
