"""Immutable read-optimized segments of the ingestion subsystem.

A :class:`Segment` is a sealed :class:`~repro.ingest.buffer.IngestBuffer`:
one immutable CSR block behind a
:class:`~repro.storage.paged.MappedSegmentIndex` plus the add sequence number
of every table it holds.  Segments are never mutated after
sealing — removals are expressed as *tombstones* (table id → remove sequence
number) kept by the owning :class:`~repro.ingest.live.LiveIndex`, and a
segment-resident copy of a table is visible exactly when no tombstone with a
later sequence number masks it:

``visible(table) := tombstone_seq(table) < add_seq(table in this segment)``

Re-adding a removed table therefore works without touching old segments: the
new copy's add sequence exceeds the tombstone, the old copies stay masked
until :func:`merge_segments` physically purges them.

:func:`merge_segments` implements compaction's merge step: adjacent (in
generation order) segments collapse into one, masked tables are dropped, and
per-value posting order is preserved — oldest segment first, insertion order
within a segment — which is what keeps a compacted
:class:`~repro.ingest.live.LiveIndex` byte-identical to a bulk-built index
over the same surviving tables.  Sealed and merged segments are CSR blocks
(:mod:`repro.storage.segment_block`), so the merge is a handful of
whole-column operations, not a walk over the vocabulary.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..exceptions import IndexError_
from ..storage.paged import MappedSegmentIndex, block_of
from ..storage.segment_block import merge_blocks


class Segment:
    """One immutable, read-optimized chunk of the live index."""

    __slots__ = ("index", "table_seqs", "generation")

    def __init__(
        self,
        index: MappedSegmentIndex,
        table_seqs: Mapping[int, int],
        generation: int,
    ):
        #: The sealed block's index (never mutated again).
        self.index = index
        #: table id -> add sequence number, for tombstone visibility checks.
        self.table_seqs = dict(table_seqs)
        #: Monotonically increasing id assigned at seal/merge time.
        self.generation = generation

    def __len__(self) -> int:
        """Number of PL items stored in the segment."""
        return self.index.num_posting_items()

    def __contains__(self, table_id: int) -> bool:
        return table_id in self.table_seqs

    def num_tables(self) -> int:
        """Number of table copies (visible or masked) in the segment."""
        return len(self.table_seqs)

    def masked_tables(self, tombstones: Mapping[int, int]) -> set[int]:
        """Table ids of this segment hidden by the given tombstones."""
        return {
            table_id
            for table_id, add_seq in self.table_seqs.items()
            if tombstones.get(table_id, -1) >= add_seq
        }


def merge_segments(
    segments: Sequence[Segment],
    tombstones: Mapping[int, int],
    generation: int,
) -> Segment:
    """Collapse adjacent segments into one, purging tombstoned tables.

    ``segments`` must be in ascending generation order (the caller hands a
    contiguous slice of the live index's segment stack); per-value posting
    order of the merged segment is then exactly the concatenation order —
    the same order a bulk rebuild over the surviving tables produces.
    """
    if not segments:
        raise IndexError_("cannot merge an empty segment list")
    masks = [segment.masked_tables(tombstones) for segment in segments]
    table_seqs: dict[int, int] = {}
    for segment, masked in zip(segments, masks):
        for table_id, add_seq in segment.table_seqs.items():
            if table_id not in masked:
                table_seqs[table_id] = add_seq
    merged = merge_blocks([block_of(segment.index) for segment in segments], masks)
    return Segment(
        index=MappedSegmentIndex(merged),
        table_seqs=table_seqs,
        generation=generation,
    )
