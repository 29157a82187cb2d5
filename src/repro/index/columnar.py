"""Columnar (struct-of-arrays) posting-list layout.

The classic layout of :class:`~repro.index.inverted.InvertedIndex` stores one
Python :class:`~repro.index.posting.PostingListItem` NamedTuple per PL item
and materialises a :class:`~repro.index.posting.FetchedItem` per item on every
fetch — per-row object overhead that in-memory analytics engines eliminate
with columnar, array-packed layouts.  This module provides the packed
equivalent used by the index's (default) ``columnar`` layout:

* :class:`ColumnarPostingList` — the postings of one value as three parallel
  flat integer arrays (``array('q')`` table ids, ``array('i')`` column
  indexes, ``array('q')`` row indexes) plus memoised *table runs* and
  *super-key columns* so repeated fetches do no per-item work;
* :class:`PackedSuperKeys` — the per-row super keys packed into one
  fixed-width byte buffer (``hash_size / 8`` bytes per row) instead of a
  dictionary of arbitrary-precision integers (with a spill map for keys that
  exceed the configured width);
* :class:`DictSuperKeys` — the legacy dictionary store behind the same
  interface, so both layouts share one code path;
* :class:`FetchBlock` — the struct-of-arrays result of ``fetch_batch``: one
  block per probed value, referencing the packed columns directly (zero-copy)
  with the super-key column attached;
* :class:`TableBlock` — the per-candidate-table view Algorithm 1's filtering
  loop iterates (lines 4-9) on the table-at-a-time path: row indexes and run
  provenance assembled run-by-run, every other column on demand.

Which consumer reads which structure: with the numpy kernel, row-filter mode
``superkey`` and a packed buffer on every fetched block, a request keeps its
:class:`FetchBlock` s and :mod:`repro.index.batch` turns their columns and
memoised coverage bitmaps into request-level arrays — no :class:`TableBlock`
is built.  Everything else (no numpy, ``MATE_KERNEL=fallback|off``, modes
``none`` / ``oracle``, an unpacked block) regroups the fetch blocks with
:func:`group_into_table_blocks`, and an index with only the classic
``fetch`` surface goes through :func:`group_items_into_table_blocks`.

Every structure can still round-trip to the classic per-item records
(:meth:`FetchBlock.items`, :meth:`ColumnarPostingList.items`), which is what
keeps ``InvertedIndex.fetch`` byte-compatible across layouts.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator, Sequence

from ..config import INDEX_LAYOUTS
from .posting import FetchedItem, PostingListItem

#: Supported posting-list layouts of the inverted index (the canonical
#: definition lives in :mod:`repro.config`, next to its validation).
LAYOUTS: tuple[str, ...] = INDEX_LAYOUTS

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


def pack_super_keys(super_keys: Iterable[int], width_bytes: int) -> bytes | None:
    """Pack integer super keys into one fixed-width big-endian buffer.

    Returns ``None`` when any key does not fit ``width_bytes`` (oversize or
    negative) — callers then stay on the per-integer path; correctness never
    depends on the declared width.
    """
    out = bytearray()
    try:
        for super_key in super_keys:
            out += super_key.to_bytes(width_bytes, "big")
    except (AttributeError, OverflowError):
        return None
    return bytes(out)


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


class DictSuperKeys:
    """Row super keys in a plain dictionary (the ``legacy`` layout's store).

    Exposes the same interface as :class:`PackedSuperKeys` — including the
    ``epoch`` counter the memoised super-key columns are validated against —
    so the index code is layout-agnostic.
    """

    __slots__ = ("epoch", "_entries")

    def __init__(self) -> None:
        #: Bumped on every mutation; consumers key memoised data on it.
        self.epoch = 0
        self._entries: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._entries

    def get(self, key: tuple[int, int], default: int | None = 0) -> int | None:
        """Return the super key stored under ``key`` (or ``default``)."""
        return self._entries.get(key, default)

    def set(self, key: tuple[int, int], value: int) -> None:
        """Store (or replace) one super key."""
        self.epoch += 1
        self._entries[key] = value

    def or_into(self, key: tuple[int, int], value_hash: int) -> int:
        """OR ``value_hash`` into the stored key (0 when absent); return it."""
        self.epoch += 1
        updated = self._entries.get(key, 0) | value_hash
        self._entries[key] = updated
        return updated

    def pop(self, key: tuple[int, int]) -> None:
        """Drop one super key (no-op when absent)."""
        self.epoch += 1
        self._entries.pop(key, None)

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Iterate over ``((table_id, row_index), super_key)`` pairs."""
        return iter(self._entries.items())

    def get_many(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> list[int]:
        """Return the super keys of the given rows (0 when absent), in order."""
        get = self._entries.get
        return [get(key, 0) for key in zip(table_ids, row_indexes)]

    def get_many_packed(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> bytes | None:
        """Packed column of the given rows — always ``None`` here.

        The dictionary store has no declared key width, so there is nothing
        to pack zero-copy; consumers that want a packed buffer pack the
        integer column themselves (:func:`pack_super_keys`).
        """
        return None


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
        self, store: DictSuperKeys | PackedSuperKeys
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

    def super_key_packed(self, store: DictSuperKeys | PackedSuperKeys):
        """The memoised *packed* super-key column of this list under ``store``.

        ``None`` when the store cannot pack (legacy dictionary store, or a
        spilled oversize key) — the negative answer is memoised too, so
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
        self, key_super_key: int, length_shift: int | None, kernel: str
    ) -> tuple[bytes, bytes | None]:
        """Memoised :func:`~repro.index.kernels.entry_coverage` of this block.

        The vector pass over the whole posting column runs once per
        ``(key entry, kernel)`` and every per-table block spliced out of
        this fetch block reuses the bitmaps — that amortisation is what
        makes the kernel path beat the row loop even on few-row candidate
        tables.  Requires the packed buffer (``super_key_bytes``).
        """
        cache = self._coverage_memo(1)
        token = (key_super_key, length_shift, kernel)
        hit = cache.get(token)
        if hit is None:
            from .kernels import entry_coverage

            hit = cache[token] = entry_coverage(
                self.super_key_bytes,
                self.key_width,
                key_super_key,
                length_shift,
                kernel,
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
        self, entries, length_shift: int | None, kernel: str
    ) -> list[tuple[bytes, bytes | None]]:
        """All of a query value's entry bitmaps, memoised as one list.

        ``entries`` is the query key map's entry list for this block's value;
        the memo keeps a reference to it and matches by identity (safe: a
        held reference cannot be recycled), so the per-run cost inside one
        query drops to a single dict hit even for multi-entry values.
        """
        cache = self._cov_cache
        token = ("query", length_shift, kernel)
        hit = cache.get(token) if cache is not None else None
        if hit is not None and hit[0] is entries:
            return hit[1]
        # Room for all of this query's entries first, so they stay together.
        self._coverage_memo(len(entries) + 1)
        per_level = [
            self.entry_coverage(key_super_key, length_shift, kernel)
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

    @classmethod
    def from_fetched_items(
        cls, value: str, items: Sequence[FetchedItem]
    ) -> "FetchBlock":
        """Build a block from classic fetch records (legacy-layout bridge)."""
        table_ids = [item.table_id for item in items]
        return cls(
            value=value,
            table_ids=table_ids,
            column_indexes=[item.column_index for item in items],
            row_indexes=[item.row_index for item in items],
            super_keys=[item.super_key for item in items],
            runs=compute_table_runs(table_ids),
        )


def blocks_from_fetch(items: Iterable[FetchedItem]) -> list[FetchBlock]:
    """Group classic per-item fetch results into per-value blocks.

    The bridge from any per-item ``fetch`` to the struct-of-arrays world:
    one block per value in first-seen order, items in fetch order, values
    without postings yielding no block — exactly the ``fetch_batch``
    contract.
    """
    grouped: dict[str, list[FetchedItem]] = {}
    for item in items:
        grouped.setdefault(item.value, []).append(item)
    return [
        FetchBlock.from_fetched_items(value, value_items)
        for value, value_items in grouped.items()
    ]


class TableBlock:
    """All fetched postings of one candidate table (table-at-a-time path).

    What the coverage-splicing prefilter reads is kept eagerly:
    ``row_indexes``, ``value_runs`` (maximal runs of equal consecutive probe
    values, known for free at assembly time) and ``cov_sources``, the
    provenance of every run.  The other columns have one reader each — the
    per-row loop (``values``, ``super_keys``) and :meth:`items`
    (``column_indexes``) — and are only assembled, with slice copies from
    the fetch blocks, when asked for, so the kernel path never converts or
    copies what it does not read.  No packed super-key column is spliced:
    the kernel path reads the fetch blocks' buffers through ``cov_sources``.
    """

    __slots__ = ("table_id", "row_indexes", "value_runs", "cov_sources",
                 "_column_indexes", "_super_keys", "_pending")

    def __init__(self, table_id: int):
        self.table_id = table_id
        self.row_indexes: list[int] = []
        #: Maximal runs of equal consecutive probe values.
        self.value_runs: list[ValueRun] = []
        #: Provenance of every appended run — ``(fetch block, fetch start,
        #: table start, count)`` — for the coverage-splicing prefilter path;
        #: degrades to ``None`` when a run arrives without a packed source
        #: (spilled keys, legacy layout, per-item bridge).
        self.cov_sources: list[tuple[FetchBlock, int, int, int]] | None = []
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
        if self.cov_sources is not None:
            if block.super_key_bytes is not None:
                self.cov_sources.append((block, start, position, count))
            else:
                self.cov_sources = None
        self._pending.append((block, start, end))

    def append_item(
        self, value: str, column_index: int, row_index: int, super_key: int
    ) -> None:
        """Append one classic per-item posting (the legacy-``fetch`` bridge)."""
        self._copy_pending()
        self._note_run(value, len(self.row_indexes), 1)
        self.row_indexes.append(row_index)
        self._column_indexes.append(column_index)
        self._super_keys.append(super_key)
        self.cov_sources = None

    def items(self) -> list[FetchedItem]:
        """Materialise the block as classic per-item fetch records."""
        return [
            FetchedItem(value, self.table_id, column_index, row_index, super_key)
            for value, column_index, row_index, super_key in zip(
                self.values, self.column_indexes, self.row_indexes, self.super_keys
            )
        ]


def group_into_table_blocks(
    blocks: Iterable[FetchBlock],
    into: dict[int, TableBlock] | None = None,
) -> dict[int, TableBlock]:
    """Regroup per-value fetch blocks into per-table blocks (line 5 of Alg. 1).

    Preserves the fetch order exactly: per probed value in first-seen order,
    per posting in insertion order — the grouping the legacy
    ``fetch_grouped_by_table`` produced, minus the per-item records.
    ``into`` merges incrementally into an existing grouping (the chunked
    fetch path of the adaptive executor); blocks must then arrive in probe
    order for the result to equal a single-shot call.
    """
    grouped: dict[int, TableBlock] = {} if into is None else into
    for block in blocks:
        for table_id, start, end in block.runs:
            table_block = grouped.get(table_id)
            if table_block is None:
                table_block = grouped[table_id] = TableBlock(table_id)
            table_block.extend_run(block, start, end)
    return grouped


def group_items_into_table_blocks(
    items: Iterable[FetchedItem],
    into: dict[int, TableBlock] | None = None,
) -> dict[int, TableBlock]:
    """Per-item fallback of :func:`group_into_table_blocks`.

    Used when an index only exposes the classic ``fetch`` surface (no
    struct-of-arrays ``fetch_batch``); same ordering contract.
    """
    grouped: dict[int, TableBlock] = {} if into is None else into
    for item in items:
        table_block = grouped.get(item.table_id)
        if table_block is None:
            table_block = grouped[item.table_id] = TableBlock(item.table_id)
        table_block.append_item(
            item.value, item.column_index, item.row_index, item.super_key
        )
    return grouped


def fetch_table_blocks(index, values: Iterable[str]) -> dict[int, TableBlock]:
    """Fetch ``values`` from any index and group the postings by table.

    Uses the batched struct-of-arrays path when the index provides
    ``fetch_batch`` (all indexes in this repository do) and falls back to the
    classic per-item ``fetch`` otherwise, so the discovery engine runs
    unchanged on third-party index objects.
    """
    fetch_batch = getattr(index, "fetch_batch", None)
    if fetch_batch is not None:
        return group_into_table_blocks(fetch_batch(values))
    return group_items_into_table_blocks(index.fetch(values))
