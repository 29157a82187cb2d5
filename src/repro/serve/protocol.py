"""The IPC protocol between the pool parent and its shard worker processes.

One message class per interaction, all plain picklable dataclasses sent over
:mod:`multiprocessing` pipe connections.  The protocol is deliberately tiny —
a worker owns exactly one shard and answers one kind of question — and
versioned so a parent never talks to a worker built from different code (a
stale spawn snapshot, a partially upgraded deployment).

Wire flow::

    parent                              worker (one per shard)
      |  -- WorkerReady? ---------------  sends WorkerReady on startup
      |  -- ShardQuery(task_id, ...) -->  runs MateDiscovery on its shard
      |  <-- ShardResult(task_id, ...) -  (or ShardError on failure)
      |  -- Shutdown() --------------->   closes its segment and exits

``ShardQuery`` carries the per-shard slice of the request budget (the fetch
share computed by :func:`repro.serve.pool.split_budget` and the remaining
wall-clock allowance measured at scatter time); ``ShardResult`` reports the
ledger state back so the parent can reconcile the global
:class:`~repro.api.request.RequestBudget` on gather.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.results import DiscoveryResult
from ..datamodel import QueryTable
from ..telemetry.trace import TraceContext

#: Version of the parent/worker wire protocol; bumped on any message change.
#: v2 added the planner/sketch fields of :class:`ShardQuery` (the
#: approximate candidate tier running inside each shard worker).
#: v3 added distributed tracing: the ``trace`` context on
#: :class:`ShardQuery` and the finished worker ``spans`` shipped back on
#: :class:`ShardResult`, so one exporter file reconstructs the full
#: cross-process span tree.
#: v4 dropped ``ShardResult.replica`` with the hedge mirror workers.
PROTOCOL_VERSION: int = 4


@dataclass(frozen=True)
class WorkerReady:
    """Handshake a worker sends once its segment is mapped and engine built."""

    shard_index: int
    pid: int
    protocol_version: int = PROTOCOL_VERSION
    num_tables: int = 0
    num_postings: int = 0


@dataclass(frozen=True)
class ShardQuery:
    """One scattered top-k probe against a single shard."""

    task_id: int
    query: QueryTable
    k: int
    #: This shard's slice of the request's posting-list fetch budget
    #: (``None`` when the request is unlimited).
    max_pl_fetches: int | None = None
    #: Remaining wall-clock allowance at scatter time (``None`` = no deadline).
    deadline_seconds: float | None = None
    #: Per-request planner options (``None`` = the engine's classic
    #: selector path), forwarded verbatim to each shard's engine.
    planner: object | None = None
    #: Per-request sketch options of planner mode ``"sketch"`` (``None`` =
    #: no approximate tier); each worker prunes against its own shard's
    #: persisted sketch store.
    sketch: object | None = None
    #: Distributed-tracing context (trace id + parent span id) of the
    #: scattering request; ``None`` when tracing is off.  The worker opens
    #: its ``shard.discover`` span under this parent.
    trace: TraceContext | None = None


@dataclass(frozen=True)
class ShardResult:
    """A worker's answer to one :class:`ShardQuery`."""

    task_id: int
    shard_index: int
    result: DiscoveryResult
    #: Fetches actually consumed out of the granted share (0 when unlimited).
    consumed_pl_fetches: int = 0
    #: Whether the shard's local fetch share ran out mid-initialization.
    exhausted: bool = False
    #: Whether the shard observed its deadline slice as expired.
    expired: bool = False
    #: Wall-clock seconds the worker spent inside the engine.
    seconds: float = 0.0
    #: Finished span dictionaries collected in the worker for this task
    #: (empty when the query carried no trace context); the parent
    #: re-exports them so the cross-process tree lands in one file.
    spans: tuple = ()


@dataclass(frozen=True)
class ShardError:
    """A worker-side failure, relayed instead of a :class:`ShardResult`."""

    task_id: int
    shard_index: int
    kind: str
    message: str


@dataclass(frozen=True)
class Shutdown:
    """Ask a worker to close its mapped segment and exit cleanly."""

    reason: str = "close"


#: Message classes a parent may receive from a worker.
WORKER_MESSAGES = (WorkerReady, ShardResult, ShardError)

#: Message classes a worker may receive from its parent.
PARENT_MESSAGES = (ShardQuery, Shutdown)


@dataclass
class ProtocolStats:
    """Per-connection message accounting (exposed via pool statistics)."""

    sent: int = 0
    received: int = 0
    errors: int = 0

    def as_dict(self) -> dict[str, int]:
        """Return the accounting as a plain dictionary."""
        return {"sent": self.sent, "received": self.received, "errors": self.errors}


__all__ = [
    "PROTOCOL_VERSION",
    "PARENT_MESSAGES",
    "WORKER_MESSAGES",
    "ProtocolStats",
    "ShardError",
    "ShardQuery",
    "ShardResult",
    "Shutdown",
    "WorkerReady",
]
