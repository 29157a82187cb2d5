"""Online ingestion: WAL-durable writes over a log-structured live index.

Every other engine in the repository assumes a statically indexed lake; this
package accepts writes online, LSM-style, while the read path keeps the
packed columnar layout of :mod:`repro.index.columnar`:

* :class:`~repro.ingest.buffer.IngestBuffer` — the mutable in-memory delta:
  a column store a table enters through the bulk build's own encode, batch
  XASH and layout routines (:mod:`repro.index.bulk`), read through a pinned
  :class:`~repro.ingest.buffer.BufferView`; the per-cell loop over the shared
  :class:`~repro.index.builder.IndexBuilder` where numpy is absent;
* :class:`~repro.ingest.wal.WriteAheadLog` — append-before-apply durability
  (and encode-before-append: nothing is logged that cannot be indexed);
  a crashed process replays the log to recover its exact buffer state;
* :class:`~repro.ingest.segments.Segment` / :func:`~repro.ingest.segments.merge_segments`
  — immutable sealed segments with tombstone-masked removals, each with the
  sketch file of its tables beside it;
* :class:`~repro.ingest.compactor.Compactor` — seals oversized buffers and
  merges small segments, inline or on a background thread;
* :class:`~repro.ingest.live.LiveIndex` — the façade stacking buffer +
  segments behind the standard ``fetch`` / ``fetch_batch`` index surface,
  with generation-pinned :class:`~repro.ingest.live.LiveSnapshot` reads.

The session front door is :meth:`DiscoverySession.ingest
<repro.api.session.DiscoverySession.ingest>` / :meth:`remove
<repro.api.session.DiscoverySession.remove>` with ``engine="live"`` requests;
the CLI ``ingest`` sub-command streams whole directories into a persisted
live index.
"""

from .buffer import IngestBuffer
from .compactor import CompactionPolicy, Compactor
from .live import LiveIndex, LiveSnapshot
from .segments import Segment, merge_segments
from .wal import WalRecord, WriteAheadLog, replay_wal

__all__ = [
    "CompactionPolicy",
    "Compactor",
    "IngestBuffer",
    "LiveIndex",
    "LiveSnapshot",
    "Segment",
    "WalRecord",
    "WriteAheadLog",
    "merge_segments",
    "replay_wal",
]
