"""The live (online-mutable) index: delta buffer + immutable segment stack.

:class:`LiveIndex` is the log-structured front of the ingestion subsystem.
Writes (``add_table`` / ``remove_table``) are encoded first (whatever can
raise — interning, hashing, sketching — does it before anything is durable),
then logged to the :class:`~repro.ingest.wal.WriteAheadLog`, then installed in
the mutable :class:`~repro.ingest.buffer.IngestBuffer`, and periodically *sealed* into
immutable columnar :class:`~repro.ingest.segments.Segment` objects that the
compactor merges in the background.  Reads see the union of the segment
stack (oldest to newest) and the buffer, with tombstones masking removed
tables — behind exactly the ``fetch`` / ``fetch_batch`` query surface of
:class:`~repro.index.inverted.InvertedIndex`, so the discovery engine, the
posting-list cache, and the session facade all run unchanged on top.

**Snapshot isolation.**  :meth:`LiveIndex.snapshot` returns a
:class:`LiveSnapshot` pinning one *generation*: the segment stack, the
tombstone set and (on the buffer's column-store lane) the buffered tables as
of that instant.  Every read entry point of the live index
takes an implicit snapshot, so a single ``fetch_batch`` — the one index
round-trip of Algorithm 1's initialization step — is always internally
consistent, and a discovery run started before a compaction finishes against
the pre-compaction stack (sealed segments stay readable forever; compaction
swaps the stack, it never destroys components a snapshot still references).
Results are therefore identical whether or not a seal or merge lands
mid-query.

**Ordering contract.**  Visible postings of one value are returned oldest
component first, insertion order within a component — i.e. ascending add
sequence.  A bulk :func:`~repro.index.builder.build_index` over the
surviving tables (added to the corpus in the same ascending add-sequence
order) yields byte-identical fetch output, which is what makes
``engine="live"`` top-k results equal to a fresh bulk build.
"""

from __future__ import annotations

import json
import os
import threading
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..config import MateConfig
from ..datamodel import MISSING, Table
from ..exceptions import IndexClosedError, IndexError_, StorageError
from ..index import FetchBlock, FetchedItem, InvertedIndex, compute_table_runs
from ..sketch import SKETCH_FILE_STEM, SKETCH_SUFFIX, SketchIndex
from ..storage.paged import (
    SEGMENT_SUFFIX,
    MappedSegmentIndex,
    block_of,
    load_segment,
    write_segment,
)
from ..storage.serialization import load_index_json
from .buffer import BufferView, IngestBuffer
from .segments import Segment, merge_segments
from .wal import WriteAheadLog, repair_torn_tail, replay_wal

#: Manifest payload version of a persisted live index directory.
LIVE_FORMAT_VERSION: int = 1

#: File names inside a live index directory.
MANIFEST_FILE = "manifest.json"
WAL_FILE = "wal.jsonl"


def _segment_stem(generation: int) -> str:
    """What the files of one segment are called, up to the suffix: the
    postings are ``<stem>.seg``, the sketches of its tables ``<stem>.sk``."""
    return f"segment-{generation:06d}"


def _segment_file(generation: int) -> str:
    """File name of a newly persisted segment (binary mmap format)."""
    return _segment_stem(generation) + SEGMENT_SUFFIX


def _load_segment_index(path: Path) -> MappedSegmentIndex:
    """Open one persisted segment: mmap ``.seg``, legacy JSON otherwise.

    Directories written before the binary format keep loading — the
    manifest records each segment's file name, so mixed stacks (old
    ``.json`` next to new ``.seg``) recover fine and convert to ``.seg``
    at the next seal or merge touching them.  A JSON segment is flattened
    into a heap block here, so every segment of the stack is served the
    same way.
    """
    if path.suffix == SEGMENT_SUFFIX:
        return load_segment(path)
    return MappedSegmentIndex(block_of(load_index_json(path)))


def _fsync_path(path: Path) -> None:
    """fsync one file (or directory) by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _filter_block(block: FetchBlock, masked: frozenset[int]) -> FetchBlock | None:
    """Drop the runs of masked tables from a fetch block (``None`` if empty).

    When the source block carries a packed super-key buffer, the filtered
    block keeps a packed buffer too (slice copies), so the vectorized
    prefilter kernels stay engaged across the live index's masking path.
    """
    table_ids: list[int] = []
    column_indexes: list[int] = []
    row_indexes: list[int] = []
    width = block.key_width
    source = block.super_key_bytes
    packed: bytearray | None = bytearray() if source is not None else None
    super_keys: list[int] = []
    for table_id, start, end in block.runs:
        if table_id in masked:
            continue
        table_ids.extend(block.table_ids[start:end])
        column_indexes.extend(block.column_indexes[start:end])
        row_indexes.extend(block.row_indexes[start:end])
        if packed is not None:
            packed += source[start * width : end * width]
        else:
            super_keys.extend(block.super_keys[start:end])
    if not table_ids:
        return None
    return FetchBlock(
        block.value,
        table_ids,
        column_indexes,
        row_indexes,
        None if packed is not None else super_keys,
        compute_table_runs(table_ids),
        super_key_bytes=bytes(packed) if packed is not None else None,
        key_width=width if packed is not None else None,
    )


def _concat_blocks(value: str, blocks: Sequence[FetchBlock]) -> FetchBlock:
    """Concatenate the per-component blocks of one value (component order).

    The packed super-key buffer survives concatenation when every component
    block carries one of the same width; otherwise the merged block degrades
    to the integer column.
    """
    table_ids: list[int] = []
    column_indexes: list[int] = []
    row_indexes: list[int] = []
    widths = {block.key_width for block in blocks}
    packable = len(widths) == 1 and all(
        block.super_key_bytes is not None for block in blocks
    )
    width = widths.pop() if packable else None
    packed: bytearray | None = bytearray() if packable else None
    super_keys: list[int] = []
    for block in blocks:
        table_ids.extend(block.table_ids)
        column_indexes.extend(block.column_indexes)
        row_indexes.extend(block.row_indexes)
        if packed is not None:
            packed += block.super_key_bytes
        else:
            super_keys.extend(block.super_keys)
    return FetchBlock(
        value,
        table_ids,
        column_indexes,
        row_indexes,
        None if packed is not None else super_keys,
        compute_table_runs(table_ids),
        super_key_bytes=bytes(packed) if packed is not None else None,
        key_width=width,
    )


class LiveSnapshot:
    """A pinned, read-only view of one live-index generation.

    Holds the component stack (segments oldest to newest, then the write
    buffer) with per-component masked-table sets frozen at snapshot time.
    Segments are immutable, so a snapshot survives any number of later seals
    and merges unchanged.  The buffer component is a
    :class:`~repro.ingest.buffer.BufferView` pinning the buffered tables of
    that instant — appends grow the buffer's columns past what the view
    pinned, drops build new columns — so writes landing after the snapshot
    do *not* show through it: the contract covers concurrent appends, not
    only compaction.  (Without numpy the buffer is a shared mutable index
    and later buffer writes still leak into an older snapshot.)
    """

    __slots__ = ("generation", "hash_function_name", "hash_size", "_components")

    def __init__(
        self,
        generation: int,
        components: tuple[
            tuple[
                MappedSegmentIndex | BufferView | InvertedIndex,
                dict[int, int],
                frozenset[int],
            ],
            ...,
        ],
        hash_function_name: str,
        hash_size: int,
    ):
        #: The live index generation this snapshot pinned.
        self.generation = generation
        self.hash_function_name = hash_function_name
        self.hash_size = hash_size
        # (index, table_seqs, masked) per component, oldest first.
        self._components = components

    # ------------------------------------------------------------------
    # Fetching (the Algorithm 1 surface)
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch struct-of-arrays blocks: one per probed value, merged
        across components in ascending add-sequence order.

        Same contract as :meth:`InvertedIndex.fetch_batch
        <repro.index.inverted.InvertedIndex.fetch_batch>` (dedup, skip
        missing, one block per value with postings) — a value living in a
        single component is returned zero-copy.
        """
        ordered = [v for v in dict.fromkeys(values) if v != MISSING]
        if not ordered:
            return []
        per_value: dict[str, list[FetchBlock]] = {v: [] for v in ordered}
        for index, _table_seqs, masked in self._components:
            for block in index.fetch_batch(ordered):
                if masked and any(run[0] in masked for run in block.runs):
                    filtered = _filter_block(block, masked)
                    if filtered is None:
                        continue
                    block = filtered
                per_value[block.value].append(block)
        merged: list[FetchBlock] = []
        for value in ordered:
            blocks = per_value[value]
            if not blocks:
                continue
            merged.append(
                blocks[0] if len(blocks) == 1 else _concat_blocks(value, blocks)
            )
        return merged

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Fetch classic per-item records (flattened :meth:`fetch_batch`)."""
        fetched: list[FetchedItem] = []
        for block in self.fetch_batch(values):
            fetched.extend(block)
        return fetched

    def fetch_grouped_by_table(
        self, values: Iterable[str]
    ) -> dict[int, list[FetchedItem]]:
        """Fetch PL items and group them by table id."""
        grouped: dict[int, list[FetchedItem]] = {}
        for item in self.fetch(values):
            grouped.setdefault(item.table_id, []).append(item)
        return grouped

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def posting_list_length(self, value: str) -> int:
        """Number of visible PL items for ``value`` across all components."""
        total = 0
        for index, _table_seqs, masked in self._components:
            if not masked:
                total += index.posting_list_length(value)
                continue
            columns = index.posting_columns(value)
            if columns is None:
                continue
            total += sum(
                end - start
                for table_id, start, end in columns.runs()
                if table_id not in masked
            )
        return total

    def posting_count_for_values(self, values: Sequence[str]) -> int:
        """Total visible PL items the given probe values would fetch."""
        return sum(
            self.posting_list_length(value)
            for value in dict.fromkeys(values)
            if value != MISSING
        )

    def posting_list(self, value: str):
        """Visible postings of ``value`` as classic per-item records."""
        items = []
        for index, _table_seqs, masked in self._components:
            for item in index.posting_list(value):
                if item.table_id not in masked:
                    items.append(item)
        return items

    def super_key(self, table_id: int, row_index: int) -> int:
        """Super key of a visible row (newest visible copy wins)."""
        for index, table_seqs, masked in reversed(self._components):
            if table_id in table_seqs and table_id not in masked:
                if index.has_row(table_id, row_index):
                    return index.super_key(table_id, row_index)
        raise IndexError_(
            f"no live super key stored for table {table_id} row {row_index}"
        )

    def has_row(self, table_id: int, row_index: int) -> bool:
        """Whether a visible component stores a super key for the row."""
        return any(
            table_id in table_seqs
            and table_id not in masked
            and index.has_row(table_id, row_index)
            for index, table_seqs, masked in self._components
        )

    def indexed_tables(self) -> set[int]:
        """Ids of every visible table."""
        visible: set[int] = set()
        for _index, table_seqs, masked in self._components:
            visible.update(tid for tid in table_seqs if tid not in masked)
        return visible

    def values(self) -> Iterator[str]:
        """Iterate over the distinct visible values (component order)."""
        vocabularies = []
        visible: set[str] = set()
        for index, _table_seqs, masked in self._components:
            values = list(index.values())
            vocabularies.append(values)
            if masked:
                # Hidden here, a value may still be visible elsewhere.
                visible.update(compress(values, index.visible_counts(masked)[0]))
            else:
                visible.update(values)
        return iter(
            dict.fromkeys(
                value for value in chain.from_iterable(vocabularies) if value in visible
            )
        )

    def __contains__(self, value: str) -> bool:
        return self.posting_list_length(value) > 0

    def __len__(self) -> int:
        """Number of distinct visible values."""
        return sum(1 for _ in self.values())

    def num_posting_items(self) -> int:
        """Total visible PL items."""
        total = 0
        for index, _table_seqs, masked in self._components:
            if not masked:
                total += index.num_posting_items()
            else:
                total += sum(index.visible_counts(masked)[0])
        return total

    def num_rows(self) -> int:
        """Total rows of visible tables (rows owning a super key)."""
        total = 0
        for index, _table_seqs, masked in self._components:
            if not masked:
                total += index.num_rows()
            else:
                total += index.visible_counts(masked)[1]
        return total


class LiveIndex:
    """Online-mutable index: WAL + delta buffer + immutable segment stack.

    Parameters
    ----------
    config:
        The :class:`~repro.config.MateConfig` (hash size etc.) shared with
        the discovery engines.
    hash_function_name:
        Hash function for per-row super keys (default XASH).
    directory:
        Optional persistence root.  When given, mutations are written ahead
        to ``wal.jsonl``, sealed segments are saved as binary mmap ``.seg``
        files (:func:`repro.storage.paged.write_segment`), and
        ``manifest.json`` records the stack — reopening the directory
        recovers the exact pre-crash state (manifest + WAL replay) with
        near-zero startup cost: segments are mapped, not parsed, and their
        pages are shared with any other process mapping the same files.
        Legacy JSON segments from older directories keep loading.
        ``None`` runs fully in memory (no durability).
    fsync:
        Whether WAL appends fsync (see :class:`~repro.ingest.wal.WriteAheadLog`).
    """

    #: Posting layout presented to consumers (segments and buffer are packed).
    layout = "columnar"

    def __init__(
        self,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        directory: str | Path | None = None,
        fsync: bool = True,
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        self.hash_size = self.config.hash_size
        self._segments: tuple[Segment, ...] = ()
        self._buffer = IngestBuffer(
            config=self.config, hash_function_name=hash_function_name
        )
        self._tombstones: dict[int, int] = {}
        self._seq = 0
        # Highest sequence number fully covered by persisted segments and
        # tombstones; the manifest records THIS (never the live counter), so
        # replay can never skip a WAL record whose effect only lives in the
        # (volatile) buffer.
        self._checkpoint_seq = 0
        self._generation = 0
        self._lock = threading.RLock()
        self._closed = False
        self._recovered: list[Table] = []
        # The MinHash-LSH sketch store of the approximate candidate tier,
        # kept incrementally fresh by every add/remove (and persisted at
        # each seal in directory mode).  ``_sketch_stale`` marks a
        # recovered directory whose sealed tables predate sketch
        # persistence: their column sketches cannot be rebuilt from
        # postings alone, so consumers must fall back to a corpus build.
        self._sketch = SketchIndex()
        self._sketch_stale = False
        self.directory = Path(directory) if directory is not None else None
        self._fsync = fsync
        self._wal: WriteAheadLog | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._recover()
            # A torn in-flight record was skipped by replay; cut it off
            # physically so the reopened log never appends onto its line.
            repair_torn_tail(self.directory / WAL_FILE)
            self._wal = WriteAheadLog(self.directory / WAL_FILE, fsync=fsync)

    @classmethod
    def open(
        cls,
        directory: str | Path,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        fsync: bool = True,
    ) -> "LiveIndex":
        """Open (creating if needed) a persisted live index directory."""
        return cls(
            config=config,
            hash_function_name=hash_function_name,
            directory=directory,
            fsync=fsync,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Refuse further writes and release the WAL handle (idempotent).

        Reads stay available — a closed live index degrades to a static one.
        """
        with self._lock:
            self._closed = True
            if self._wal is not None:
                self._wal.close()

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise IndexClosedError(
                f"{operation} on a closed live index; reopen the directory "
                "to resume ingestion"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Bumped by every seal and merge (what snapshots pin)."""
        return self._generation

    @property
    def sequence(self) -> int:
        """Sequence number of the last accepted operation."""
        return self._seq

    @property
    def num_segments(self) -> int:
        """Number of immutable segments currently stacked."""
        return len(self._segments)

    def segment_sizes(self) -> list[int]:
        """PL-item count of each stacked segment (oldest first)."""
        with self._lock:
            return [len(segment) for segment in self._segments]

    @property
    def buffer_rows(self) -> int:
        """Rows currently in the mutable delta buffer."""
        return self._buffer.num_rows()

    @property
    def buffer_tables(self) -> int:
        """Tables currently in the mutable delta buffer."""
        return len(self._buffer)

    @property
    def tombstones(self) -> dict[int, int]:
        """A copy of the live tombstone map (table id -> remove sequence)."""
        with self._lock:
            return dict(self._tombstones)

    def sketch_index(self) -> SketchIndex | None:
        """The live MinHash-LSH sketch store, or ``None`` when unusable.

        The store mirrors the visible table set exactly: writes update it
        inline, WAL replay re-applies later adds and removes, and every
        seal and merge persists the sketches of the segment's tables next
        to its ``.seg`` (``segment-NNNNNN.sk``).  ``None`` means a segment's
        sketch file is missing or corrupt (a directory predating sketch
        persistence), so sealed tables are missing from the store — callers
        must build from the corpus instead of silently losing recall.
        """
        if self._sketch_stale:
            return None
        return self._sketch

    def recovered_tables(self) -> list[Table]:
        """Tables replayed from the WAL when the directory was opened.

        These are the operations that were acknowledged but not yet sealed
        when the previous process died; callers rebuilding a corpus add them
        back (the sealed part of the corpus is persisted separately).
        """
        return list(self._recovered)

    def has_table(self, table_id: int) -> bool:
        """Whether ``table_id`` is currently visible (added, not removed)."""
        with self._lock:
            return self._visible_locked(table_id)

    def table_sequences(self) -> dict[int, int]:
        """Visible table id -> add sequence number.

        Sorting the ids by sequence reproduces the surviving-table ingest
        order — the order in which a bulk rebuild must add them to yield
        byte-identical fetch output (the equivalence contract).
        """
        with self._lock:
            sequences: dict[int, int] = {}
            for segment in self._segments:
                for table_id, add_seq in segment.table_seqs.items():
                    if self._tombstones.get(table_id, -1) < add_seq:
                        sequences[table_id] = add_seq
            sequences.update(self._buffer.table_seqs)
            return sequences

    def _visible_locked(self, table_id: int) -> bool:
        if table_id in self._buffer.table_seqs:
            return True
        tombstone = self._tombstones.get(table_id, -1)
        return any(
            segment.table_seqs.get(table_id, -1) > tombstone
            for segment in self._segments
        )

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def add_table(self, table: Table) -> int:
        """Ingest one table; returns rows.

        The order is encode, sketch, log, install: the buffer stages the
        table (interning, hashing) and the sketch store signs it before
        the WAL append, and what follows the append cannot fail — a table
        that cannot be indexed raises here and leaves no record that would
        raise again at every replay.

        Raises :class:`~repro.exceptions.IndexError_` when the table id is
        already visible — remove it first; re-adding after removal is fine.
        """
        with self._lock:
            self._ensure_open("add_table")
            if self._visible_locked(table.table_id):
                raise IndexError_(
                    f"table {table.table_id} is already live; remove it "
                    "before re-adding"
                )
            staged = self._buffer.stage(table)
            self._sketch.add_table(table)
            seq = self._seq + 1
            if self._wal is not None:
                try:
                    self._wal.append_add_table(seq, table)
                except BaseException:
                    self._sketch.remove_table(table.table_id)
                    raise
            self._seq = seq
            return self._buffer.install(staged, seq)

    def remove_table(self, table_id: int) -> int:
        """Remove a table from the live view (tombstone + buffer purge).

        Buffered copies are physically dropped (their PL-item count is
        returned); segment-resident copies are masked by a tombstone and
        physically purged at the next merge.  Removing a table that is not
        visible is a no-op returning 0.
        """
        with self._lock:
            self._ensure_open("remove_table")
            if not self._visible_locked(table_id):
                return 0
            seq = self._seq + 1
            if self._wal is not None:
                self._wal.append_remove_table(seq, table_id)
            self._seq = seq
            return self._apply_remove_locked(table_id, seq)

    def _apply_remove_locked(self, table_id: int, seq: int) -> int:
        """Apply one remove operation (shared by the write path and replay)."""
        removed = self._buffer.drop_table(table_id)
        tombstone = self._tombstones.get(table_id, -1)
        if any(
            segment.table_seqs.get(table_id, -1) > tombstone
            for segment in self._segments
        ):
            self._tombstones[table_id] = seq
        self._sketch.remove_table(table_id)
        return removed

    # ------------------------------------------------------------------
    # Compaction primitives (driven by repro.ingest.compactor)
    # ------------------------------------------------------------------
    def seal(self) -> Segment | None:
        """Freeze the buffer into a new immutable segment (``None`` if empty).

        In directory mode the segment is persisted, the manifest rewritten,
        and the WAL truncated — sealed data no longer needs the log.
        """
        with self._lock:
            self._ensure_open("seal")
            if len(self._buffer) == 0:
                return None
            old = self._buffer
            # Laid out once: the block is what reads are served from and
            # what write_segment copies out column by column.
            index = old.seal()
            self._generation += 1
            segment = Segment(
                index=index,
                table_seqs=old.table_seqs,
                generation=self._generation,
            )
            self._segments = self._segments + (segment,)
            self._buffer = IngestBuffer(
                config=self.config,
                hash_function_name=self.hash_function_name,
                builder=old.builder,
            )
            # The buffer is drained: every operation up to the current
            # sequence is now represented by segments + tombstones, so the
            # checkpoint advances and the WAL can be truncated.
            self._checkpoint_seq = self._seq
            if self.directory is not None:
                # Durability order matters: segment, then sketches, then
                # manifest, then WAL truncation — the log may only shrink
                # once its records (including their sketches, which replay
                # would otherwise rebuild from the log) are fully
                # represented on disk elsewhere.
                path = self.directory / _segment_file(segment.generation)
                write_segment(segment.index, path, fsync=self._fsync)
                self._persist_sketches_locked(segment)
                self._write_manifest_locked()
                assert self._wal is not None
                self._wal.truncate()
            return segment

    def merge(self, start: int = 0, end: int | None = None) -> Segment | None:
        """Merge the contiguous segment slice ``[start:end]`` into one.

        Tombstoned tables are physically purged; tombstones masking nothing
        afterwards are dropped.  Returns the merged segment, or ``None``
        when the slice holds fewer than two segments or the stack changed
        under a concurrent merge (the caller simply retries).
        """
        with self._lock:
            self._ensure_open("merge")
            slice_ = self._segments[start:end]
            tombstones = dict(self._tombstones)
        if len(slice_) < 2:
            return None
        # Build outside the lock: merging is the expensive part and sealed
        # segments are immutable, so concurrent reads and writes proceed.
        merged = merge_segments(slice_, tombstones, generation=0)
        with self._lock:
            self._ensure_open("merge")
            current = self._segments[start : start + len(slice_)]
            if tuple(current) != tuple(slice_):
                return None  # stack changed underneath; caller retries
            self._generation += 1
            merged.generation = self._generation
            self._segments = (
                self._segments[:start]
                + (merged,)
                + self._segments[start + len(slice_) :]
            )
            self._purge_tombstones_locked()
            if self.directory is not None:
                # Merged segment and its sketch file durable first, then
                # the manifest that references them; only then may the
                # superseded files go.  The merged sketch file holds the
                # stored (packed) sketches of the surviving tables — a
                # copy, nothing is sketched again.
                path = self.directory / _segment_file(merged.generation)
                write_segment(merged.index, path, fsync=self._fsync)
                self._persist_sketches_locked(merged)
                self._write_manifest_locked()
                for segment in slice_:
                    # The superseded file may predate the binary format;
                    # unlinking a still-mapped .seg is safe (POSIX keeps
                    # the pages alive for snapshots that pin the segment).
                    base = _segment_stem(segment.generation)
                    for suffix in (SEGMENT_SUFFIX, ".json", SKETCH_SUFFIX):
                        (self.directory / f"{base}{suffix}").unlink(
                            missing_ok=True
                        )
            return merged

    def compact(self) -> int:
        """Seal the buffer and merge the whole stack into one segment.

        Returns the resulting segment count (0 for an empty index).
        """
        self.seal()
        while self.num_segments > 1:
            if self.merge(0, None) is None:
                break
        return self.num_segments

    def _purge_tombstones_locked(self) -> None:
        components = [s.table_seqs for s in self._segments]
        components.append(self._buffer.table_seqs)
        self._tombstones = {
            table_id: tombstone
            for table_id, tombstone in self._tombstones.items()
            if any(
                table_seqs.get(table_id, tombstone + 1) <= tombstone
                for table_seqs in components
            )
        }

    # ------------------------------------------------------------------
    # Snapshots and the read surface
    # ------------------------------------------------------------------
    def snapshot(self) -> LiveSnapshot:
        """Pin the current generation (segment stack, tombstones, buffer)."""
        with self._lock:
            components = tuple(
                (
                    segment.index,
                    segment.table_seqs,
                    frozenset(segment.masked_tables(self._tombstones)),
                )
                for segment in self._segments
            ) + ((self._buffer.index, dict(self._buffer.table_seqs), frozenset()),)
            return LiveSnapshot(
                generation=self._generation,
                components=components,
                hash_function_name=self.hash_function_name,
                hash_size=self.hash_size,
            )

    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Snapshot-consistent :meth:`LiveSnapshot.fetch_batch`."""
        return self.snapshot().fetch_batch(values)

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Snapshot-consistent :meth:`LiveSnapshot.fetch`."""
        return self.snapshot().fetch(values)

    def fetch_grouped_by_table(
        self, values: Iterable[str]
    ) -> dict[int, list[FetchedItem]]:
        """Snapshot-consistent grouped fetch."""
        return self.snapshot().fetch_grouped_by_table(values)

    def posting_list_length(self, value: str) -> int:
        """Visible PL items for ``value``."""
        return self.snapshot().posting_list_length(value)

    def posting_count_for_values(self, values: Sequence[str]) -> int:
        """Visible PL items the given probe values would fetch."""
        return self.snapshot().posting_count_for_values(values)

    def posting_lengths(self, values: Sequence[str]) -> list[int]:
        """Per-value visible PL-item counts, all read off *one* snapshot.

        The batched statistics read behind the query planner's cost model
        (:func:`repro.index.statistics.estimate_posting_volume`): sampling
        posting-list lengths value by value would pin one generation per
        lookup and could straddle a concurrent compaction; this pins one.
        """
        snapshot = self.snapshot()
        return [snapshot.posting_list_length(value) for value in values]

    def super_key(self, table_id: int, row_index: int) -> int:
        """Super key of a visible row."""
        return self.snapshot().super_key(table_id, row_index)

    def has_row(self, table_id: int, row_index: int) -> bool:
        """Whether a visible row owns a super key."""
        return self.snapshot().has_row(table_id, row_index)

    def indexed_tables(self) -> set[int]:
        """Ids of every visible table."""
        return self.snapshot().indexed_tables()

    def values(self) -> Iterator[str]:
        """Distinct visible values."""
        return self.snapshot().values()

    def num_posting_items(self) -> int:
        """Total visible PL items."""
        return self.snapshot().num_posting_items()

    def num_rows(self) -> int:
        """Total visible rows."""
        return self.snapshot().num_rows()

    def __contains__(self, value: str) -> bool:
        return value in self.snapshot()

    def __len__(self) -> int:
        return len(self.snapshot())

    # ------------------------------------------------------------------
    # Persistence (manifest + recovery)
    # ------------------------------------------------------------------
    def _write_manifest_locked(self) -> None:
        assert self.directory is not None
        payload = {
            "format_version": LIVE_FORMAT_VERSION,
            "hash_function": self.hash_function_name,
            "hash_size": self.hash_size,
            # Only the checkpointed sequence is recorded: a merge mid-stream
            # must not make replay skip buffer-only WAL records.
            "seq": self._checkpoint_seq,
            "generation": self._generation,
            "segments": [
                {
                    "file": _segment_file(segment.generation),
                    "generation": segment.generation,
                    "table_seqs": {
                        str(tid): seq for tid, seq in segment.table_seqs.items()
                    },
                }
                for segment in self._segments
            ],
            "tombstones": {
                str(tid): seq for tid, seq in self._tombstones.items()
            },
        }
        path = self.directory / MANIFEST_FILE
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        if self._fsync:
            _fsync_path(tmp)
        tmp.replace(path)
        if self._fsync:
            _fsync_path(self.directory)

    def _visible_tables(self, segment: Segment) -> set[int]:
        """Ids of the tables of ``segment`` no tombstone masks."""
        return set(segment.table_seqs) - segment.masked_tables(self._tombstones)

    def _persist_sketches_locked(self, segment: Segment) -> None:
        """Write the sketches of ``segment``'s tables as its ``.sk`` file
        (skipped if stale).

        A stale store (sealed tables missing after recovering a pre-sketch
        directory) must never be written out: a later reopen would load it
        as complete and silently lose recall.  Only the tables visible
        *from this segment* are written — a masked copy has no sketches in
        the store, and a reopen skips masked tables anyway.
        """
        assert self.directory is not None
        if not self._sketch_stale:
            self._sketch.save(
                self.directory,
                stem=_segment_stem(segment.generation),
                table_ids=self._visible_tables(segment),
                fsync=self._fsync,
            )

    def _load_sketches_locked(self) -> None:
        """Fill the store from the segments' sketch files, each read for
        the tables visible from its segment (the rule of postings: a
        tombstoned copy stays dead, a re-added id reads its newest copy).

        A directory still holding the whole-store ``sketches.json`` /
        ``sketches.bin`` pair of an older build is migrated first: the pair's
        sketches are dealt to their segments' files by table id, and the
        pair goes once those are durable.  A missing or corrupt file leaves
        the store stale — flagged, never guessed, because column sketches
        cannot be rebuilt from postings.
        """
        assert self.directory is not None
        legacy = self.directory / f"{SKETCH_FILE_STEM}.json"
        try:
            if legacy.exists():
                whole = SketchIndex.load_legacy(self.directory)
                for segment in self._segments:
                    whole.save(
                        self.directory,
                        stem=_segment_stem(segment.generation),
                        table_ids=self._visible_tables(segment),
                        fsync=self._fsync,
                    )
                legacy.unlink()
            for segment in self._segments:
                self._sketch.load_file(
                    self.directory / (_segment_stem(segment.generation) + SKETCH_SUFFIX),
                    self._visible_tables(segment),
                )
        except StorageError:
            self._sketch = SketchIndex()
            self._sketch_stale = True

    def _remove_orphans(self, named: set[str]) -> None:
        """Delete what a crash left beside the files the manifest names.

        A crash between a segment's rename and the manifest write leaves a
        full segment (with or without its sketch file) nothing references,
        one between the manifest write and a merge's unlinks leaves the
        superseded files, one mid-write leaves ``*.tmp`` siblings, and one
        at the end of a sketch migration leaves ``sketches.bin`` without
        its manifest.  The directory has a single writer and the manifest
        is the truth, so none of them can be live.
        """
        assert self.directory is not None
        stray = set()
        if not (self.directory / f"{SKETCH_FILE_STEM}.json").exists():
            stray.add(f"{SKETCH_FILE_STEM}.bin")
        for path in self.directory.iterdir():
            name = path.name
            if (
                name.endswith(".tmp")
                or name in stray
                or (name.startswith("segment-") and name not in named)
            ):
                path.unlink(missing_ok=True)

    def _recover(self) -> None:
        assert self.directory is not None
        manifest_path = self.directory / MANIFEST_FILE
        named: set[str] = set()
        if manifest_path.exists():
            try:
                payload = json.loads(manifest_path.read_text(encoding="utf-8"))
                version = int(payload.get("format_version", 1))
                if version != LIVE_FORMAT_VERSION:
                    raise StorageError(
                        f"unsupported live-index manifest version {version}"
                    )
                if (
                    payload["hash_function"] != self.hash_function_name
                    or int(payload["hash_size"]) != self.hash_size
                ):
                    raise StorageError(
                        "live index was persisted with "
                        f"{payload['hash_size']}-bit {payload['hash_function']} "
                        f"but opened as {self.hash_size}-bit "
                        f"{self.hash_function_name}"
                    )
                self._seq = int(payload["seq"])
                self._checkpoint_seq = self._seq
                self._generation = int(payload["generation"])
                self._tombstones = {
                    int(tid): int(seq)
                    for tid, seq in payload.get("tombstones", {}).items()
                }
                segments = []
                for entry in payload.get("segments", []):
                    named.add(entry["file"])
                    named.add(_segment_stem(int(entry["generation"])) + SKETCH_SUFFIX)
                    index = _load_segment_index(self.directory / entry["file"])
                    segments.append(
                        Segment(
                            index=index,
                            table_seqs={
                                int(tid): int(seq)
                                for tid, seq in entry["table_seqs"].items()
                            },
                            generation=int(entry["generation"]),
                        )
                    )
                self._segments = tuple(segments)
            except (KeyError, TypeError, ValueError) as exc:
                raise StorageError(
                    f"malformed live-index manifest {manifest_path}: {exc}"
                ) from exc
            self._load_sketches_locked()
        # No manifest names nothing: whatever a crash before the first
        # manifest write left is an orphan too.
        self._remove_orphans(named)
        # Replay the WAL over the manifest state: every record newer than
        # the last checkpointed sequence is re-applied to a fresh buffer.
        checkpoint_seq = self._seq
        for record in replay_wal(self.directory / WAL_FILE):
            if record.seq <= checkpoint_seq:
                continue
            if record.op == "add_table":
                assert record.table is not None
                # Same gate as add_table(); replay is lenient, not raising.
                if not self._visible_locked(record.table.table_id):
                    self._buffer.add_table(record.table, record.seq)
                    self._sketch.add_table(record.table)
                    self._recovered.append(record.table)
            else:
                assert record.table_id is not None
                self._apply_remove_locked(record.table_id, record.seq)
                self._recovered = [
                    table
                    for table in self._recovered
                    if table.table_id != record.table_id
                ]
            self._seq = max(self._seq, record.seq)
        if not manifest_path.exists():
            # Pin the hash configuration of a brand-new directory eagerly so
            # a later reopen with a different config fails loudly.
            self._write_manifest_locked()
