"""The live (online-mutable) index: delta buffer + immutable segment stack.

:class:`LiveIndex` is the log-structured front of the ingestion subsystem.
Writes (``add_table`` / ``remove_table``) are encoded first (whatever can
raise — interning, hashing — does it before anything is durable),
then logged to the :class:`~repro.ingest.wal.WriteAheadLog`, then installed in
the mutable :class:`~repro.ingest.buffer.IngestBuffer`, and periodically *sealed* into
immutable columnar :class:`~repro.ingest.segments.Segment` objects that the
compactor merges in the background.  Reads see the union of the segment
stack (oldest to newest) and the buffer, with tombstones masking removed
tables — behind the ``fetch_batch`` / ``posting_lengths`` read surface of
:class:`~repro.index.inverted.InvertedIndex`, so the discovery engine and
the session facade run unchanged on top.  A value living unmasked in one
component is served as that component's memoised block; a value spread over
components, or filtered by a tombstone, gets a block built for the read.

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
from itertools import accumulate
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

import numpy as np

from ..config import MateConfig
from ..datamodel import MISSING, Table
from ..exceptions import IndexClosedError, IndexError_, StorageError
from ..index import FetchBlock, InvertedIndex
from ..index.columnar import column_view
from ..sketch import SKETCH_FILE_STEM
from ..storage.paged import SEGMENT_SUFFIX, load_segment, write_segment
from ..storage.segment_block import SegmentBlock, merge_blocks
from .buffer import BufferView, IngestBuffer
from .segments import Segment, merge_segments
from .wal import WriteAheadLog, repair_torn_tail, replay_wal

#: Manifest payload version of a persisted live index directory.
LIVE_FORMAT_VERSION: int = 1

#: File names inside a live index directory.
MANIFEST_FILE = "manifest.json"
WAL_FILE = "wal.jsonl"

#: The first 16 bytes of every SQLite database file: the index format of
#: earlier releases, recognised only to refuse it by name.
_SQLITE_HEADER = b"SQLite format 3\x00"


def _refuse_file(path: Path) -> None:
    """Refuse a path that exists but is not a directory, naming what it is.

    A SQLite database is an index from an earlier release: the refusal
    names the command that rebuilds it as a live-index directory.
    """
    if not path.exists() or path.is_dir():
        return
    try:
        with path.open("rb") as handle:
            header = handle.read(len(_SQLITE_HEADER))
    except OSError:
        header = b""
    if header == _SQLITE_HEADER:
        raise StorageError(
            f"{path} is a SQLite index from an earlier release, a format "
            "this release no longer reads; rebuild it as a live-index "
            "directory from its corpus: repro index CORPUS --live-dir DIR"
        )
    raise StorageError(f"{path} is a file, not a live-index directory")


def _refuse_sketch_pair(directory: Path) -> None:
    """Refuse a directory an older build wrote, before touching a file.

    Its whole-store ``sketches.json`` / ``sketches.bin`` pair came before
    per-segment ``.sk`` files, and so did the segment format its ``.seg``
    files are in: nothing in it is read any more.
    """
    for name in (f"{SKETCH_FILE_STEM}.json", f"{SKETCH_FILE_STEM}.bin"):
        if (directory / name).exists():
            raise StorageError(
                f"{directory} holds {name}, the whole-store sketch file of an "
                "earlier release whose live-index directories this release "
                "no longer reads; rebuild the index from its corpus into a "
                "new directory: repro index CORPUS --live-dir NEW_DIR"
            )


class _Manifest(NamedTuple):
    """The parsed ``manifest.json`` of a live-index directory."""

    hash_function: str
    hash_size: int
    #: Highest sequence number the segments and tombstones cover.
    seq: int
    generation: int
    tombstones: dict[int, int]
    #: ``(file, generation, table_seqs)`` per segment, oldest first.
    segments: list[tuple[str, int, dict[int, int]]]


def _read_manifest(directory: Path) -> _Manifest | None:
    """Parse ``directory``'s manifest (``None`` when it has none).

    The one place that knows the manifest format: anything unreadable or
    malformed raises :class:`~repro.exceptions.StorageError` naming the file.
    """
    path = directory / MANIFEST_FILE
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
        version = int(payload.get("format_version", 1))
        if version != LIVE_FORMAT_VERSION:
            raise StorageError(f"unsupported live-index manifest version {version}")
        segments = [
            (
                str(entry["file"]),
                int(entry["generation"]),
                {int(tid): int(seq) for tid, seq in entry["table_seqs"].items()},
            )
            for entry in payload.get("segments", [])
        ]
        manifest = _Manifest(
            hash_function=str(payload["hash_function"]),
            hash_size=int(payload["hash_size"]),
            seq=int(payload["seq"]),
            generation=int(payload["generation"]),
            tombstones={
                int(tid): int(seq)
                for tid, seq in payload.get("tombstones", {}).items()
            },
            segments=segments,
        )
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed live-index manifest {path}: {exc}") from exc
    return manifest


def _segment_file(generation: int) -> str:
    """File name of a newly persisted segment (binary mmap format)."""
    return f"segment-{generation:06d}{SEGMENT_SUFFIX}"


def _load_segment_index(path: Path) -> InvertedIndex:
    """Map one persisted ``.seg`` segment.

    A manifest naming anything else — the JSON segments of directories
    written before the binary format — is refused by name: rebuild the
    directory, there is no converter.
    """
    if path.suffix != SEGMENT_SUFFIX:
        raise StorageError(
            f"live-index manifest names the segment {path.name}, a JSON "
            "segment (the format before binary .seg files), which is no "
            "longer read; rebuild the live index"
        )
    return load_segment(path)


def _fsync_path(path: Path) -> None:
    """fsync one file (or directory) by path."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def sync_directory(directory: str | Path) -> None:
    """fsync every file of ``directory``, then the directory itself.

    What a writer that ran with ``fsync=False`` calls once it is done, so
    the finished state is durable without a sync per record.
    """
    directory = Path(directory)
    for path in sorted(directory.iterdir()):
        if path.is_file():
            _fsync_path(path)
    _fsync_path(directory)


def _visible(table_ids: Sequence[int], masked: frozenset[int]):
    """Mask of the postings outside the ``masked`` tables; ``None`` when no
    posting is masked (the common case, decided without numpy)."""
    if masked.isdisjoint(table_ids):
        return None
    return ~np.isin(table_ids, np.fromiter(masked, np.int64, len(masked)))


def _filter_block(block: FetchBlock, masked: frozenset[int]) -> FetchBlock | None:
    """``block`` without the postings of the ``masked`` tables (``None`` if
    none is left); the packed super-key buffer is filtered alongside."""
    visible = _visible(block.table_ids, masked)
    if visible is None:
        return block
    at = np.flatnonzero(visible)
    if not len(at):
        return None
    width = block.key_width
    keys = np.frombuffer(block.super_key_bytes, f"V{width}")
    return FetchBlock(
        block.value,
        column_view(np.take(block.table_ids, at), "q"),
        column_view(np.take(block.column_indexes, at), "i"),
        column_view(np.take(block.row_indexes, at), "q"),
        np.take(block.row_ordinals, at),
        column_view(keys[at], "B"),
        width,
    )


def _concat_blocks(value: str, blocks: Sequence[FetchBlock]) -> FetchBlock:
    """Concatenate the per-component blocks of one value (component order)."""
    return FetchBlock(
        value,
        column_view(np.concatenate([block.table_ids for block in blocks]), "q"),
        column_view(np.concatenate([block.column_indexes for block in blocks]), "i"),
        column_view(np.concatenate([block.row_indexes for block in blocks]), "q"),
        np.concatenate([block.row_ordinals for block in blocks]),
        b"".join(block.super_key_bytes for block in blocks),
        blocks[0].key_width,
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
    only compaction.

    The snapshot numbers its rows component after component: a
    component's rows follow those of every component before it (masked
    rows included), so a row ordinal of a fetched block and of
    :meth:`row_postings` is the component's own plus the component's
    *row base*.
    """

    __slots__ = (
        "generation",
        "hash_function_name",
        "hash_size",
        "_components",
        "_bases",
    )

    def __init__(
        self,
        generation: int,
        components: tuple[
            tuple[
                InvertedIndex | BufferView,
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
        #: Per component, the rows of the components before it; then all.
        self._bases = list(
            accumulate(
                (index.num_rows() for index, _seqs, _masked in components),
                initial=0,
            )
        )

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
        for (index, _table_seqs, masked), base in zip(self._components, self._bases):
            for block in index.fetch_batch(ordered, row_base=base):
                if masked:
                    block = _filter_block(block, masked)
                    if block is None:
                        continue
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

    def row_postings(self, values: Sequence[str]) -> tuple[Any, Any, Any]:
        """Every component's :meth:`InvertedIndex.row_postings
        <repro.index.inverted.InvertedIndex.row_postings>`, oldest first,
        end to end, ordinals rebased onto the snapshot's numbering.  Masked
        tables are not filtered out: their rows are no fetched posting's
        rows, so row verification never matches against them."""
        positions, ordinals, columns = zip(
            *(index.row_postings(values) for index, _seqs, _masked in self._components)
        )
        bases = np.repeat(self._bases[:-1], [len(rows) for rows in ordinals])
        return (
            np.concatenate(positions),
            np.concatenate(ordinals, dtype=np.int64) + bases,
            np.concatenate(columns),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def num_rows(self) -> int:
        """Rows of every component, masked ones included: what the
        snapshot's row ordinals number."""
        return self._bases[-1]

    def posting_lengths(self, values: Sequence[str]) -> list[int]:
        """Visible PL items of each of ``values``, summed over the
        components; a component a tombstone masks counts its postings
        outside the masked tables (:meth:`InvertedIndex.visible_lengths
        <repro.index.inverted.InvertedIndex.visible_lengths>`), building no
        fetch block."""
        totals = [0] * len(values)
        for index, _table_seqs, masked in self._components:
            lengths = (
                index.visible_lengths(values, masked)
                if masked
                else index.posting_lengths(values)
            )
            totals = [total + length for total, length in zip(totals, lengths)]
        return totals

    def indexed_tables(self) -> set[int]:
        """Ids of every visible table."""
        visible: set[int] = set()
        for _index, table_seqs, masked in self._components:
            visible.update(tid for tid in table_seqs if tid not in masked)
        return visible

    @property
    def block(self) -> SegmentBlock:
        """Everything visible as one block — the components merged as a
        compaction merges them, masked tables purged: what a full scan (the
        SQL engine's accelerator) reads."""
        return merge_blocks(
            [
                (index.laid_out() if isinstance(index, BufferView) else index).block
                for index, _table_seqs, _masked in self._components
            ],
            [masked for _index, _table_seqs, masked in self._components],
        )

    def num_posting_items(self) -> int:
        """Total visible PL items."""
        total = 0
        for index, _table_seqs, masked in self._components:
            if not masked:
                total += index.num_posting_items()
            else:
                total += index.visible_counts(masked)
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
        ``None`` runs fully in memory (no durability).
    fsync:
        Whether WAL appends fsync (see :class:`~repro.ingest.wal.WriteAheadLog`).
    """

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
        self.directory = Path(directory) if directory is not None else None
        self._fsync = fsync
        self._wal: WriteAheadLog | None = None
        if self.directory is not None:
            _refuse_file(self.directory)
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
        """Open (creating if needed) a persisted live index directory as
        its one writer: recovery sweeps what a crash left and cuts a torn
        WAL tail.  A process that only reads uses :func:`read_snapshot`."""
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
    def tombstones(self) -> dict[int, int]:
        """A copy of the live tombstone map (table id -> remove sequence)."""
        with self._lock:
            return dict(self._tombstones)

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

        The order is encode, log, install: the buffer stages the table
        (interning, hashing) before the WAL append, and what follows the
        append cannot fail — a table that cannot be indexed raises here and
        leaves no record that would raise again at every replay.  Nothing
        is signed here: the sketch tier signs the tables written since its
        last read at its next one
        (:meth:`~repro.api.session.DiscoverySession.sketch_index`).

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
            seq = self._seq + 1
            if self._wal is not None:
                self._wal.append_add_table(seq, table)
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
        return removed

    # ------------------------------------------------------------------
    # Compaction primitives (driven by repro.ingest.compactor)
    # ------------------------------------------------------------------
    def seal(self) -> Segment | None:
        """Freeze the buffer into a new immutable segment (``None`` if empty).

        In directory mode the segment is persisted, the manifest rewritten,
        and the WAL truncated — sealed data no longer needs the log.  The
        segment file is written before anything is published: a write that
        raises (a full disk) leaves memory and disk at the previous
        generation, the buffer still taking writes and the WAL whole.
        """
        with self._lock:
            self._ensure_open("seal")
            if len(self._buffer) == 0:
                return None
            old = self._buffer
            # Laid out once: the block is what reads are served from and
            # what write_segment copies out column by column (the view
            # memoises it, so old.seal() below returns this same block).
            index = old.index.laid_out()
            generation = self._generation + 1
            if self.directory is not None:
                path = self.directory / _segment_file(generation)
                write_segment(index, path, fsync=self._fsync)
            old.seal()
            self._generation = generation
            segment = Segment(
                index=index, table_seqs=old.table_seqs, generation=generation
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
                # Durability order matters: segment (written above), then
                # manifest, then WAL truncation — the log may only shrink
                # once its records are fully represented on disk elsewhere.
                self._write_manifest_locked()
                assert self._wal is not None
                self._wal.truncate()
            return segment

    def merge(self, start: int = 0, end: int | None = None) -> Segment | None:
        """Merge the contiguous segment slice ``[start:end]`` into one.

        Tombstoned tables are physically purged; tombstones masking nothing
        afterwards are dropped.  A slice of one segment is rewritten only
        when a tombstone masks one of its tables (that purge is all there is
        to do).  Returns the merged segment, or ``None`` when there is
        nothing to merge or the stack changed under a concurrent merge (the
        caller simply retries).
        """
        with self._lock:
            self._ensure_open("merge")
            slice_ = self._segments[start:end]
            tombstones = dict(self._tombstones)
        if len(slice_) < 2 and not (
            slice_ and slice_[0].masked_tables(tombstones)
        ):
            return None
        # Build outside the lock: merging is the expensive part and sealed
        # segments are immutable, so concurrent reads and writes proceed.
        merged = merge_segments(slice_, tombstones, generation=0)
        with self._lock:
            self._ensure_open("merge")
            current = self._segments[start : start + len(slice_)]
            if tuple(current) != tuple(slice_):
                return None  # stack changed underneath; caller retries
            # Persist, then publish (as in seal): a failed write leaves the
            # stack, the generation and the directory as they were.
            merged.generation = self._generation + 1
            if self.directory is not None:
                path = self.directory / _segment_file(merged.generation)
                write_segment(merged.index, path, fsync=self._fsync)
            self._generation = merged.generation
            self._segments = (
                self._segments[:start]
                + (merged,)
                + self._segments[start + len(slice_) :]
            )
            self._purge_tombstones_locked()
            if self.directory is not None:
                # Merged segment durable first (written above), then the
                # manifest that references it; only then may the
                # superseded files go.
                self._write_manifest_locked()
                for segment in slice_:
                    # Unlinking a still-mapped .seg is safe (POSIX keeps the
                    # pages alive for snapshots that pin the segment).
                    (self.directory / _segment_file(segment.generation)).unlink(
                        missing_ok=True
                    )
            return merged

    def compact(self) -> int:
        """Seal the buffer and merge the whole stack into one segment,
        tombstoned tables purged.

        Returns the resulting segment count (0 for an empty index).
        """
        self.seal()
        while self.merge(0, None) is not None and self.num_segments > 1:
            pass
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

    def fetch_batch(
        self, values: Iterable[str], snapshot: LiveSnapshot | None = None
    ) -> list[FetchBlock]:
        """Snapshot-consistent :meth:`LiveSnapshot.fetch_batch`, of
        ``snapshot`` (one :meth:`snapshot` pinned) or of a fresh snapshot.
        A request pins one for its fetches and its row verification, which
        reads the rows the fetched blocks' ordinals number.  It fetches
        through this method rather than the snapshot's so that every fetch
        stays a call of the engine's index, which is what a tracer wrapping
        ``index.fetch_batch`` (the benchmark's ``index.fetch_calls``)
        counts."""
        if snapshot is None:
            snapshot = self.snapshot()
        return snapshot.fetch_batch(values)

    def posting_lengths(self, values: Sequence[str]) -> list[int]:
        """Per-value visible PL-item counts, all read off *one* snapshot.

        The batched count behind the planner's ``cost`` mode and the
        worst/best-case column selectors
        (:func:`repro.core.column_selection.probed_postings`): counting value
        by value would pin one generation per lookup and could straddle a
        concurrent compaction; this pins one.
        """
        return self.snapshot().posting_lengths(values)

    def indexed_tables(self) -> set[int]:
        """Ids of every visible table."""
        return self.snapshot().indexed_tables()

    def num_posting_items(self) -> int:
        """Total visible PL items."""
        return self.snapshot().num_posting_items()

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

    def _remove_orphans(self, named: set[str]) -> None:
        """Delete what a crash left beside the files the manifest names.

        A crash (or a failed manifest write) between a segment's rename and
        the manifest write leaves a full segment nothing references, one
        between the manifest write and a merge's unlinks leaves the
        superseded files, and one mid-write leaves ``*.tmp`` siblings.  The
        per-segment ``segment-*.sk`` sketch files of directories written
        before sketches were signed at read time are named by no manifest
        either.  The directory has a single writer and the manifest is the
        truth, so none of them can be live.
        """
        assert self.directory is not None
        for path in self.directory.iterdir():
            name = path.name
            if name.endswith(".tmp") or (
                name.startswith("segment-") and name not in named
            ):
                path.unlink(missing_ok=True)

    def _install_manifest_locked(self, directory: Path, manifest: _Manifest) -> None:
        """Take the manifest's state: sequence, generation, tombstones and
        the segment stack (each ``.seg`` mapped, not read)."""
        self._seq = self._checkpoint_seq = manifest.seq
        self._generation = manifest.generation
        self._tombstones = dict(manifest.tombstones)
        self._segments = tuple(
            Segment(
                index=_load_segment_index(directory / file),
                table_seqs=table_seqs,
                generation=generation,
            )
            for file, generation, table_seqs in manifest.segments
        )

    def _replay_locked(self, wal_path: Path) -> None:
        """Re-apply every WAL record newer than the checkpointed sequence
        to the buffer (reads the log, never writes it)."""
        checkpoint_seq = self._seq
        for record in replay_wal(wal_path):
            if record.seq <= checkpoint_seq:
                continue
            if record.op == "add_table":
                assert record.table is not None
                # Same gate as add_table(); replay is lenient, not raising.
                if not self._visible_locked(record.table.table_id):
                    staged = self._buffer.stage(record.table)
                    self._buffer.install(staged, record.seq)
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

    def _recover(self) -> None:
        assert self.directory is not None
        _refuse_sketch_pair(self.directory)
        manifest = _read_manifest(self.directory)
        named: set[str] = set()
        if manifest is not None:
            if (
                manifest.hash_function != self.hash_function_name
                or manifest.hash_size != self.hash_size
            ):
                raise StorageError(
                    "live index was persisted with "
                    f"{manifest.hash_size}-bit {manifest.hash_function} "
                    f"but opened as {self.hash_size}-bit "
                    f"{self.hash_function_name}"
                )
            self._install_manifest_locked(self.directory, manifest)
            named.update(file for file, _generation, _ in manifest.segments)
        # No manifest names nothing: whatever a crash before the first
        # manifest write left is an orphan too.
        self._remove_orphans(named)
        # Replay the WAL over the manifest state.
        self._replay_locked(self.directory / WAL_FILE)
        if manifest is None:
            # Pin the hash configuration of a brand-new directory eagerly so
            # a later reopen with a different config fails loudly.
            self._write_manifest_locked()


#: How often :func:`read_snapshot` reads a directory whose manifest a
#: concurrent seal or merge keeps replacing before it gives up.
_READ_ATTEMPTS = 5


def read_snapshot(directory: str | Path) -> LiveSnapshot:
    """A snapshot of the live index persisted in ``directory``, read only.

    The reader's counterpart of :meth:`LiveIndex.open`, safe beside the
    directory's one writer (``repro ingest`` / ``repro index`` in another
    process): it maps the segments the manifest names and replays the WAL
    into a private buffer, and writes nothing — no orphan sweep, no torn-tail
    repair, no log opened for append; those belong to the writer's recovery.
    The hash function and width are the manifest's (the snapshot carries
    them).  A manifest that changes while the directory is read — a seal
    truncating the log, a merge deleting a segment — makes the read start
    over, so the snapshot is always one consistent generation.

    A path holding no live index — missing, a file, or a directory without
    ``manifest.json`` — raises :class:`~repro.exceptions.StorageError`
    naming the command that builds one; nothing is created on disk.
    """
    directory = Path(directory)
    _refuse_file(directory)
    for _ in range(_READ_ATTEMPTS):
        manifest = _read_manifest(directory)
        if manifest is None:
            raise StorageError(
                f"no live index at {directory} (no {MANIFEST_FILE}); build one "
                f"from the corpus: repro index CORPUS --live-dir {directory}"
            )
        live = LiveIndex(
            config=MateConfig(hash_size=manifest.hash_size),
            hash_function_name=manifest.hash_function,
        )
        try:
            live._install_manifest_locked(directory, manifest)
            live._replay_locked(directory / WAL_FILE)
        except (OSError, StorageError):
            if _read_manifest(directory) == manifest:
                raise
            continue  # a merge deleted a segment, or a seal cut the log
        if _read_manifest(directory) == manifest:
            return live.snapshot()
    raise StorageError(
        f"the live index at {directory} changed during each of "
        f"{_READ_ATTEMPTS} reads; retry once its writer is idle"
    )
