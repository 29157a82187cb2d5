"""Value-partitioned (scale-out) extended inverted index.

:class:`~repro.core.parallel.ShardedMateDiscovery` shards the *corpus* and
runs one full engine per shard.  This module shards the *index* instead —
the architecture a serving deployment of the paper's system would use: one
logical index whose posting lists are partitioned across workers by
``hash(value) % num_shards``, queried by a single engine.

:class:`ShardedInvertedIndex` satisfies the exact query surface
:class:`~repro.core.discovery.MateDiscovery` consumes (``fetch``,
``fetch_batch``, ``fetch_grouped_by_table``, ``posting_count_for_values``,
the posting-list and super-key accessors, and the mutation operations of the
maintenance layer), so the engine runs unchanged on top of it:

* **postings** live in one :class:`~repro.index.inverted.InvertedIndex` per
  shard (columnar packed arrays by default, see
  :mod:`repro.index.columnar`); a value's shard is chosen by
  :func:`shard_of_value`, which is a stable CRC-32 based hash so that shard
  assignment survives persistence and process restarts (Python's builtin
  ``hash`` is salted per process);
* **super keys** are keyed by row, not by value, and are therefore kept in
  one central store shared by all shards — packed fixed-width bytes on the
  columnar layout — and ``fetch_batch`` routes each probe value to its shard
  and attaches the central super-key column, exactly as line 4 of
  Algorithm 1 requires;
* ``fetch``/``fetch_batch`` optionally fan out across shards on a thread
  pool (``max_workers``), the same worker-pool idiom
  :class:`~repro.core.parallel.ShardedMateDiscovery` uses for per-shard
  engines.

Sharded fetch is *bit-identical* to monolithic fetch on the same corpus:
values are deduplicated in first-seen order and each value's posting list
keeps its insertion order, so ``ShardedInvertedIndex.fetch(values) ==
InvertedIndex.fetch(values)`` — the property ``tests/test_service.py``
asserts.
"""

from __future__ import annotations

import json
import zlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..config import MateConfig
from ..datamodel import MISSING, TableCorpus
from ..exceptions import IndexError_
from .builder import IndexBuilder
from .columnar import (
    LAYOUTS,
    ColumnarPostingList,
    DictSuperKeys,
    FetchBlock,
    PackedSuperKeys,
    blocks_from_fetch,
)
from .inverted import InvertedIndex
from .posting import FetchedItem, PostingListItem


def shard_of_value(value: str, num_shards: int) -> int:
    """Return the shard owning ``value``'s posting list.

    Uses CRC-32 rather than Python's builtin ``hash`` so the assignment is
    deterministic across processes — a sharded index written through a
    :class:`~repro.storage.backend.StorageBackend` must route the same value
    to the same shard after it is reloaded elsewhere.
    """
    if num_shards == 1:
        return 0
    return zlib.crc32(value.encode("utf-8")) % num_shards


class ShardedInvertedIndex:
    """An extended inverted index partitioned by value hash.

    Drop-in compatible with :class:`~repro.index.inverted.InvertedIndex` for
    every consumer in the repository (discovery engine, column selectors,
    maintenance layer); see the module docstring for the partitioning rules.
    """

    def __init__(
        self,
        num_shards: int = 4,
        hash_function_name: str = "xash",
        hash_size: int = 128,
        max_workers: int | None = None,
        layout: str = "columnar",
    ):
        if num_shards <= 0:
            raise IndexError_(f"num_shards must be positive, got {num_shards}")
        if layout not in LAYOUTS:
            raise IndexError_(
                f"unknown posting layout {layout!r}; expected one of {LAYOUTS}"
            )
        #: Name of the hash function the super keys were generated with.
        self.hash_function_name = hash_function_name
        #: Width of the stored super keys in bits.
        self.hash_size = hash_size
        #: Posting-list storage layout shared by every shard.
        self.layout = layout
        self._columnar = layout == "columnar"
        #: Number of worker threads used to fan ``fetch`` out across shards
        #: (``None`` or 1 fetches serially).
        self.max_workers = max_workers
        self._shards: list[InvertedIndex] = [
            InvertedIndex(
                hash_function_name=hash_function_name,
                hash_size=hash_size,
                layout=layout,
            )
            for _ in range(num_shards)
        ]
        self._super_keys: PackedSuperKeys | DictSuperKeys = (
            PackedSuperKeys(hash_size) if self._columnar else DictSuperKeys()
        )
        self._table_rows: dict[int, set[int]] = defaultdict(set)

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of posting-list partitions."""
        return len(self._shards)

    def shard_of(self, value: str) -> int:
        """Return the shard index owning ``value``."""
        return shard_of_value(value, self.num_shards)

    def shard(self, shard_index: int) -> InvertedIndex:
        """Return one posting-list partition (for persistence and tests)."""
        return self._shards[shard_index]

    def shard_sizes(self) -> list[int]:
        """Number of PL items per shard (the balance a deployment watches)."""
        return [shard.num_posting_items() for shard in self._shards]

    # ------------------------------------------------------------------
    # Introspection (mirrors InvertedIndex)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct indexed values (shards are disjoint)."""
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, value: str) -> bool:
        return value in self._shards[self.shard_of(value)]

    def values(self) -> Iterator[str]:
        """Iterate over the distinct indexed values, shard by shard."""
        for shard in self._shards:
            yield from shard.values()

    def num_posting_items(self) -> int:
        """Total number of PL items across all shards."""
        return sum(self.shard_sizes())

    def num_rows(self) -> int:
        """Number of rows that own a super key."""
        return len(self._super_keys)

    def indexed_tables(self) -> set[int]:
        """Return the ids of all tables with at least one indexed row."""
        return set(self._table_rows)

    def posting_list(self, value: str) -> list[PostingListItem]:
        """Return the posting list of ``value`` (empty when not indexed)."""
        return self._shards[self.shard_of(value)].posting_list(value)

    def posting_columns(self, value: str) -> ColumnarPostingList | None:
        """Return the packed posting columns of ``value`` (columnar layout)."""
        return self._shards[self.shard_of(value)].posting_columns(value)

    def posting_list_length(self, value: str) -> int:
        """Return the number of PL items for ``value`` without copying."""
        return self._shards[self.shard_of(value)].posting_list_length(value)

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
        """Add a single PL item to the shard owning ``value``."""
        if value == MISSING:
            return
        self._shards[self.shard_of(value)].add_posting(
            value, table_id, column_index, row_index
        )
        self._table_rows[table_id].add(row_index)

    def set_posting_columns(
        self, value: str, columns: ColumnarPostingList
    ) -> None:
        """Install pre-packed posting columns on the shard owning ``value``.

        The packed bulk-loading path of :meth:`InvertedIndex.set_posting_columns
        <repro.index.inverted.InvertedIndex.set_posting_columns>`; requires
        the columnar layout.
        """
        if value == MISSING or not len(columns):
            return
        self._shards[self.shard_of(value)].set_posting_columns(value, columns)
        table_rows = self._table_rows
        for table_id, row_index in zip(columns.table_ids, columns.row_indexes):
            table_rows[table_id].add(row_index)

    def set_super_key(self, table_id: int, row_index: int, super_key: int) -> None:
        """Store (or replace) the super key of a row."""
        self._super_keys.set((table_id, row_index), super_key)
        self._table_rows[table_id].add(row_index)

    def or_into_super_key(self, table_id: int, row_index: int, value_hash: int) -> int:
        """OR a new value hash into an existing row super key (column insert)."""
        updated = self._super_keys.or_into((table_id, row_index), value_hash)
        self._table_rows[table_id].add(row_index)
        return updated

    def remove_table(self, table_id: int) -> int:
        """Remove every posting and super key of ``table_id`` from all shards."""
        removed = sum(shard.remove_table(table_id) for shard in self._shards)
        for row_index in self._table_rows.pop(table_id, set()):
            self._super_keys.pop((table_id, row_index))
        return removed

    def remove_row(self, table_id: int, row_index: int) -> int:
        """Remove the postings and super key of a single row."""
        removed = sum(
            shard.remove_row(table_id, row_index) for shard in self._shards
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
        return sum(
            shard.remove_column(table_id, column_index) for shard in self._shards
        )

    # ------------------------------------------------------------------
    # Discovery-phase retrieval
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch the postings of ``values`` as struct-of-arrays blocks.

        Probe values are routed to their owning shard (concurrently when
        ``max_workers`` > 1), each shard hands back its packed posting
        columns, and the blocks are reassembled in the original first-seen
        value order with the *central* super-key column attached — identical
        content to :meth:`InvertedIndex.fetch_batch
        <repro.index.inverted.InvertedIndex.fetch_batch>` on the same corpus.
        """
        ordered = [v for v in dict.fromkeys(values) if v != MISSING]
        by_shard: dict[int, list[str]] = defaultdict(list)
        for value in ordered:
            by_shard[self.shard_of(value)].append(value)

        if self._columnar:
            columns: dict[str, ColumnarPostingList] = {}
            for shard_columns in self._map_shards(
                self._fetch_shard_columns, by_shard
            ):
                columns.update(shard_columns)
            store = self._super_keys
            blocks: list[FetchBlock] = []
            for value in ordered:
                value_columns = columns.get(value)
                if value_columns is None or not len(value_columns):
                    continue
                packed = value_columns.super_key_packed(store)
                if packed is not None:
                    blocks.append(
                        FetchBlock(
                            value,
                            value_columns.table_ids,
                            value_columns.column_indexes,
                            value_columns.row_indexes,
                            None,
                            value_columns.runs(),
                            super_key_bytes=packed,
                            key_width=store.width_bytes,
                        )
                    )
                else:
                    blocks.append(
                        FetchBlock(
                            value,
                            value_columns.table_ids,
                            value_columns.column_indexes,
                            value_columns.row_indexes,
                            value_columns.super_key_column(store),
                            value_columns.runs(),
                        )
                    )
            return blocks

        postings: dict[str, list[PostingListItem]] = {}
        for shard_postings in self._map_shards(
            self._fetch_shard_postings, by_shard
        ):
            postings.update(shard_postings)
        get_super_key = self._super_keys.get
        return blocks_from_fetch(
            FetchedItem.from_posting(
                value, item, get_super_key((item.table_id, item.row_index), 0)
            )
            for value in ordered
            for item in postings.get(value, ())
        )

    def _map_shards(self, worker, by_shard: dict[int, list[str]]):
        """Run ``worker`` over the shard routing, on a pool when configured."""
        entries = list(by_shard.items())
        if self.max_workers and self.max_workers > 1 and len(entries) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(worker, entries))
        return [worker(entry) for entry in entries]

    def _fetch_shard_columns(
        self, entry: tuple[int, list[str]]
    ) -> dict[str, ColumnarPostingList]:
        """Fetch the packed posting columns of one shard (pool worker)."""
        shard_index, shard_values = entry
        shard = self._shards[shard_index]
        columns: dict[str, ColumnarPostingList] = {}
        for value in shard_values:
            value_columns = shard.posting_columns(value)
            if value_columns is not None:
                columns[value] = value_columns
        return columns

    def _fetch_shard_postings(
        self, entry: tuple[int, list[str]]
    ) -> dict[str, list[PostingListItem]]:
        """Fetch the posting lists of one shard's probe values (pool worker)."""
        shard_index, shard_values = entry
        shard = self._shards[shard_index]
        return {value: shard.posting_list(value) for value in shard_values}

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Fetch the PL items (with super keys) for every value in ``values``.

        Flattens :meth:`fetch_batch`, so the output is identical to
        :meth:`InvertedIndex.fetch <repro.index.inverted.InvertedIndex.fetch>`
        on the same corpus.
        """
        fetched: list[FetchedItem] = []
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

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_index(
        cls,
        index: InvertedIndex,
        num_shards: int,
        max_workers: int | None = None,
    ) -> "ShardedInvertedIndex":
        """Partition an existing monolithic index into ``num_shards`` shards."""
        sharded = cls(
            num_shards=num_shards,
            hash_function_name=index.hash_function_name,
            hash_size=index.hash_size,
            max_workers=max_workers,
            layout=index.layout,
        )
        if index.layout == "columnar":
            # Wholesale per-value moves: every posting of a value lands on one
            # shard, so the packed columns transfer without materialising
            # per-item records (copied — the source index stays independent,
            # and a block-backed one memoises no view per value).
            for value, columns in index.iter_posting_copies():
                sharded.set_posting_columns(value, columns)
        else:
            for value in index.values():
                for item in index.posting_list(value):
                    sharded.add_posting(
                        value, item.table_id, item.column_index, item.row_index
                    )
        for table_id, row_index, super_key in index.iter_super_keys():
            sharded.set_super_key(table_id, row_index, super_key)
        return sharded


#: Name of the per-directory manifest describing a saved sharded index.
SHARD_MANIFEST_NAME = "manifest.json"


def save_shard_segments(
    index: ShardedInvertedIndex, directory: str | Path
) -> Path:
    """Persist every shard of a columnar sharded index as a ``.seg`` file.

    Writes ``shard_NN.seg`` per posting-list partition plus a
    ``manifest.json`` recording the topology (shard count, hash function and
    size, segment names), so :func:`open_shard_segments` can reconstruct the
    exact same value routing — CRC-based :func:`shard_of_value` assignment
    only holds if the shard count matches.

    Shards store postings only; the super keys live in the index's central
    per-row store.  Each shard segment is written *with* that central row
    table (the store is temporarily attached to the shard during the write),
    so every worker mapping a single shard still resolves any row's super
    key — the property the process-per-shard serving mode relies on.
    """
    from ..storage.paged import write_segment

    if index.layout != "columnar":
        raise IndexError_(
            "shard segments require the columnar layout "
            f"(got {index.layout!r})"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for shard_index in range(index.num_shards):
        shard = index.shard(shard_index)
        name = f"shard_{shard_index:02d}.seg"
        own_store = shard._super_keys
        shard._super_keys = index._super_keys
        try:
            write_segment(shard, directory / name)
        finally:
            shard._super_keys = own_store
        names.append(name)
    manifest = {
        "num_shards": index.num_shards,
        "hash_function": index.hash_function_name,
        "hash_size": index.hash_size,
        "segments": names,
    }
    (directory / SHARD_MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return directory


def open_shard_segments(
    directory: str | Path,
    max_workers: int | None = None,
) -> "MappedShardedIndex":
    """Map a directory written by :func:`save_shard_segments` (read-only)."""
    directory = Path(directory)
    manifest_path = directory / SHARD_MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexError_(
            f"no {SHARD_MANIFEST_NAME} in {directory}; not a saved "
            "sharded index"
        )
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    segments = [directory / name for name in manifest["segments"]]
    if len(segments) != int(manifest["num_shards"]):
        raise IndexError_(
            f"manifest in {directory} names {len(segments)} segments for "
            f"{manifest['num_shards']} shards"
        )
    return MappedShardedIndex(segments, manifest, max_workers=max_workers)


class MappedShardedIndex(ShardedInvertedIndex):
    """A read-only sharded index whose shards are mmap'd ``.seg`` segments.

    Same value routing and fetch surface as a live
    :class:`ShardedInvertedIndex` (bit-identical ``fetch_batch``), but every
    posting-list partition is a zero-copy
    :class:`~repro.storage.paged.MappedSegmentIndex` whose pages the OS
    shares across processes mapping the same files.  Mutations raise — the
    mapped segments are immutable; route writes through the ingestion
    subsystem and re-save.
    """

    def __init__(
        self,
        segment_paths: Sequence[str | Path],
        manifest: dict,
        max_workers: int | None = None,
    ):
        from ..storage.paged import reopen_segment

        hash_function = manifest["hash_function"]
        hash_size = int(manifest["hash_size"])
        super().__init__(
            num_shards=max(len(segment_paths), 1),
            hash_function_name=hash_function,
            hash_size=hash_size,
            max_workers=max_workers,
            layout="columnar",
        )
        opened = []
        try:
            for path in segment_paths:
                opened.append(
                    reopen_segment(
                        path,
                        hash_function_name=hash_function,
                        hash_size=hash_size,
                    )
                )
        except BaseException:
            for segment in opened:
                segment.close()
            raise
        # Replace the freshly-built empty shards with the mapped segments.
        # Every segment carries the full central row table (see
        # save_shard_segments), so any of them can serve as the central
        # super-key store; point lookups bind to the first.
        self._shards = opened
        if opened:
            self._super_keys = opened[0]._super_keys

    def indexed_tables(self) -> set[int]:
        """Table ids present in the central row table (mutation-free source)."""
        if not self._shards:
            return set()
        return self._shards[0].indexed_tables()

    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Route each probe value to its shard's own pre-memoised fetch.

        Unlike the live index (central store attached on assembly), each
        mapped shard resolves super keys against its *own* store so the
        pre-memoised packed columns from the file are served zero-copy; the
        blocks are reassembled in first-seen probe order, identical content
        to the live index on the same corpus.
        """
        ordered = [v for v in dict.fromkeys(values) if v != MISSING]
        by_shard: dict[int, list[str]] = defaultdict(list)
        for value in ordered:
            by_shard[self.shard_of(value)].append(value)
        blocks: dict[str, FetchBlock] = {}
        for shard_blocks in self._map_shards(self._fetch_shard_blocks, by_shard):
            blocks.update(shard_blocks)
        return [blocks[value] for value in ordered if value in blocks]

    def _fetch_shard_blocks(
        self, entry: tuple[int, list[str]]
    ) -> dict[str, FetchBlock]:
        shard_index, shard_values = entry
        return {
            block.value: block
            for block in self._shards[shard_index].fetch_batch(shard_values)
        }

    def _read_only(self, operation: str) -> None:
        raise IndexError_(
            f"cannot {operation}: this sharded index maps read-only segment "
            "files"
        )

    def add_posting(self, *args, **kwargs) -> None:
        self._read_only("add postings")

    def set_posting_columns(self, *args, **kwargs) -> None:
        self._read_only("install posting columns")

    def set_super_key(self, *args, **kwargs) -> None:
        self._read_only("set super keys")

    def or_into_super_key(self, *args, **kwargs) -> int:
        self._read_only("update super keys")
        raise AssertionError  # pragma: no cover - _read_only always raises

    def remove_table(self, *args, **kwargs) -> int:
        self._read_only("remove tables")
        raise AssertionError  # pragma: no cover - _read_only always raises

    def remove_row(self, *args, **kwargs) -> int:
        self._read_only("remove rows")
        raise AssertionError  # pragma: no cover - _read_only always raises

    def remove_column(self, *args, **kwargs) -> int:
        self._read_only("remove columns")
        raise AssertionError  # pragma: no cover - _read_only always raises

    def close(self) -> None:
        """Unmap every shard segment (idempotent)."""
        for segment in self._shards:
            segment.close()

    def __enter__(self) -> "MappedShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def build_sharded_index(
    corpus: TableCorpus,
    num_shards: int = 4,
    config: MateConfig | None = None,
    hash_function_name: str = "xash",
    max_workers: int | None = None,
    layout: str | None = None,
) -> ShardedInvertedIndex:
    """Build a :class:`ShardedInvertedIndex` for ``corpus`` in one call.

    The offline walk is the standard
    :class:`~repro.index.builder.IndexBuilder` pass; only the destination
    differs (postings land in their value shard instead of one dictionary).
    """
    config = config or MateConfig()
    builder = IndexBuilder(config=config, hash_function_name=hash_function_name)
    index = ShardedInvertedIndex(
        num_shards=num_shards,
        hash_function_name=hash_function_name,
        hash_size=config.hash_size,
        max_workers=max_workers,
        layout=layout or config.index_layout,
    )
    for table in corpus:
        builder.add_table(index, table)
    return index
