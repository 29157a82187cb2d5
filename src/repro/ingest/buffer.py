"""The mutable in-memory delta index of the ingestion subsystem.

An :class:`IngestBuffer` is the write head of a
:class:`~repro.ingest.live.LiveIndex`: newly ingested tables land here first,
as a small mutable :class:`~repro.index.inverted.InvertedIndex` (columnar
packed layout) plus the per-table *add sequence numbers* the snapshot and
tombstone machinery reasons about.  Per-row XASH super keys are computed on
the way in by the exact same :class:`~repro.index.builder.IndexBuilder` code
path the offline bulk build uses — ingestion can therefore never disagree
with a bulk rebuild about a hash.

Buffers are cheap to churn: a removed table that still lives in the buffer is
physically dropped (the buffer is small, so the rewrite is bounded), which
keeps the delta free of masked data — only immutable segments need
tombstones.  Sealing (:meth:`IngestBuffer.seal`) freezes the buffer: its
index is flattened, once, into the CSR block of a new immutable segment, and
every further mutation raises :class:`~repro.exceptions.IndexClosedError`.
"""

from __future__ import annotations

from ..config import MateConfig
from ..datamodel import Table
from ..exceptions import IndexClosedError
from ..index import IndexBuilder, InvertedIndex
from ..storage.paged import MappedSegmentIndex
from ..storage.segment_block import flatten_index


class IngestBuffer:
    """Mutable delta inverted index accepting online ``add`` / ``remove``."""

    def __init__(
        self,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        builder: IndexBuilder | None = None,
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        # The builder carries the memoised per-value hash cache; sharing one
        # across buffer generations keeps re-hashing of recurring values out
        # of the ingest hot path (exactly like the offline bulk build).
        self._builder = builder or IndexBuilder(
            config=self.config, hash_function_name=hash_function_name
        )
        #: The delta index (columnar packed layout, like every sealed segment).
        self.index = InvertedIndex(
            hash_function_name=hash_function_name,
            hash_size=self.config.hash_size,
            layout="columnar",
        )
        #: table id -> sequence number of the add operation.
        self.table_seqs: dict[int, int] = {}
        self._sealed = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` froze this buffer."""
        return self._sealed

    @property
    def builder(self) -> IndexBuilder:
        """The (hash-memoising) builder; shared with successor buffers."""
        return self._builder

    def __len__(self) -> int:
        """Number of tables currently buffered."""
        return len(self.table_seqs)

    def __contains__(self, table_id: int) -> bool:
        return table_id in self.table_seqs

    def num_rows(self) -> int:
        """Number of buffered rows (rows owning a super key)."""
        return self.index.num_rows()

    def num_posting_items(self) -> int:
        """Number of buffered PL items."""
        return self.index.num_posting_items()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _ensure_writable(self, operation: str) -> None:
        if self._sealed:
            raise IndexClosedError(
                f"{operation} on a sealed ingest buffer; the buffer was "
                "compacted into an immutable segment and accepts no writes"
            )

    def add_table(self, table: Table, seq: int) -> int:
        """Index ``table`` into the delta under sequence number ``seq``.

        Returns the number of indexed rows.  Super keys are computed row by
        row through the shared :class:`~repro.index.builder.IndexBuilder`.
        """
        self._ensure_writable("add_table")
        rows = self._builder.add_table(self.index, table)
        self.table_seqs[table.table_id] = seq
        return rows

    def drop_table(self, table_id: int) -> int:
        """Physically remove a buffered table; returns dropped PL items.

        No-op (returning 0) when the table is not buffered — the caller's
        tombstones handle segment-resident copies.
        """
        self._ensure_writable("drop_table")
        if table_id not in self.table_seqs:
            return 0
        del self.table_seqs[table_id]
        return self.index.remove_table(table_id)

    def seal(self) -> MappedSegmentIndex:
        """Freeze the buffer and return its postings as segment payload.

        After sealing, every mutation raises
        :class:`~repro.exceptions.IndexClosedError`.  The payload is the
        buffer's index flattened into one block (the immutable segment the
        read path stacks, and what a segment file is written from);
        :attr:`index` itself stays readable for the snapshots that pinned it.
        """
        self._sealed = True
        return MappedSegmentIndex(flatten_index(self.index))
