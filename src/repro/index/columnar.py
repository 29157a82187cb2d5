"""Columnar (struct-of-arrays) posting lists.

One Python record per PL item, materialised again on every fetch, is the
per-row object overhead that in-memory analytics engines eliminate with
columnar, array-packed layouts.  An
:class:`~repro.index.inverted.InvertedIndex` is one CSR block
(:class:`~repro.storage.segment_block.SegmentBlock`); this module holds the
views it serves that block through:

* :class:`ColumnarPostingList` — the postings of one value as three parallel
  integer views into the block (table ids, column indexes, row indexes) plus
  its super keys and memoised *table runs*, so repeated fetches do no
  per-item work;
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

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..datamodel import MISSING
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


class ColumnarPostingList:
    """The postings of one value: views of the three posting columns of its
    block, its super keys — the packed slice of the block's posting keys
    (``super_key_bytes``), or the integer column (``super_keys``) when a
    posting's row spilled — and its memoised table runs."""

    __slots__ = (
        "table_ids",
        "column_indexes",
        "row_indexes",
        "super_key_bytes",
        "super_keys",
        "_runs",
    )

    def __init__(
        self,
        table_ids: Sequence[int],
        column_indexes: Sequence[int],
        row_indexes: Sequence[int],
        *,
        super_key_bytes=None,
        super_keys: list[int] | None = None,
    ):
        self.table_ids = table_ids
        self.column_indexes = column_indexes
        self.row_indexes = row_indexes
        self.super_key_bytes = super_key_bytes
        self.super_keys = super_keys
        self._runs: list[TableRun] | None = None

    def __len__(self) -> int:
        return len(self.table_ids)

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
        if self._runs is None:
            self._runs = compute_table_runs(self.table_ids)
        return self._runs


class FetchBlock:
    """Struct-of-arrays fetch result of one probe value.

    The posting columns reference the index's packed arrays directly (no
    copy); ``super_keys`` is the per-posting super-key column and ``runs`` the
    table runs used to regroup the block by candidate table — given as a
    list, or as the callable that yields it (a posting list's memoised
    :meth:`ColumnarPostingList.runs`), called when a consumer first asks:
    the request-level array path never does.  Blocks are snapshots of the
    index block they were sliced from: a replaced block leaves them as they
    were (the posting-list cache drops them when the block is replaced).

    Unless a posting's row spilled, the block instead carries the
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


class FetchSurface:
    """The per-item fetch records Algorithm 1 is written in, for any index
    with ``fetch_batch`` and ``posting_list_length``: the blocks, flattened."""

    if TYPE_CHECKING:  # pragma: no cover - what a subclass provides

        def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
            raise NotImplementedError

        def posting_list_length(self, value: str) -> int:
            raise NotImplementedError

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Fetch the PL items (with super keys) for every value in ``values``.

        This is ``fetch_PLs`` of Algorithm 1 (line 4): ``fetch_batch``,
        flattened.  Duplicate probe values are fetched only once.
        """
        fetched: list[FetchedItem] = []
        for block in self.fetch_batch(values):
            fetched.extend(block)
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
