"""Process-parallel serving: shard-owning worker processes + HTTP front end.

The serving subsystem turns the library into a deployable query service:

* :mod:`repro.serve.pool` — :class:`ProcessShardPool`, the
  ``execution="process"`` engine behind ``engine="sharded"``: one worker
  process per corpus shard over mmap'd ``.seg`` segments, scatter/gather
  top-k merge byte-identical to the in-process engines, and per-request
  budget split/reconcile;
* :mod:`repro.serve.protocol` — the typed, versioned pipe messages between
  the pool parent and its workers;
* :mod:`repro.serve.quotas` — :class:`AdmissionController`: bounded
  in-flight queue with 429 + ``Retry-After`` backpressure, per-tenant
  quotas, graceful drain;
* :mod:`repro.serve.http` — the stdlib asyncio HTTP front end
  (:class:`DiscoveryHTTPServer`, the ``serve`` CLI subcommand).
"""

from .http import DiscoveryHTTPServer, run_server
from .pool import ProcessShardPool, ServeConfig, split_budget
from .protocol import (
    PROTOCOL_VERSION,
    ShardError,
    ShardQuery,
    ShardResult,
    Shutdown,
    WorkerReady,
)
from .quotas import (
    AdmissionController,
    AdmissionDecision,
    AdmissionTicket,
    TenantQuota,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionTicket",
    "DiscoveryHTTPServer",
    "PROTOCOL_VERSION",
    "ProcessShardPool",
    "ServeConfig",
    "ShardError",
    "ShardQuery",
    "ShardResult",
    "Shutdown",
    "TenantQuota",
    "WorkerReady",
    "run_server",
    "split_budget",
]
