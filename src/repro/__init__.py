"""MATE reproduction: multi-attribute (n-ary) joinable table discovery.

This package reimplements the system described in "MATE: Multi-Attribute
Table Extraction" (Esmailoghli, Quiané-Ruiz, Abedjan — VLDB 2022) as a
self-contained Python library:

* :mod:`repro.api` — the unified public API: :class:`DiscoveryRequest` /
  :class:`DiscoverySession`, the engine registry, per-request budgets and
  deadlines, and the versioned JSON response schema;
* :mod:`repro.hashing` — XASH and every baseline hash function, plus the
  super-key machinery;
* :mod:`repro.index` — the extended single-attribute inverted index, which
  memoises the fetch block of every value it has served;
* :mod:`repro.ingest` — online ingestion: a WAL-durable delta buffer sealed
  and compacted into immutable columnar segments behind a
  :class:`LiveIndex` (``session.ingest()`` / ``engine="live"``);
* :mod:`repro.core` — Algorithm 1: initialization, table/row filtering,
  joinability calculation, and sharded scale-out discovery;
* :mod:`repro.plan` — query planning: the explicit stage pipeline, the
  seed-column :class:`Planner` (the column selector's choice, or exact
  posting counts off the index), and the :class:`Executor` with budget
  enforcement (``DiscoveryRequest.planner``);
* :mod:`repro.sketch` — the approximate candidate tier: per-column MinHash
  signatures and a banded LSH index that prune the candidate universe ahead
  of exact MATE (planner mode ``"sketch"`` + ``DiscoveryRequest.sketch``);
* :mod:`repro.serve` — process-parallel serving: one worker process per
  shard over mmap'd segments (``DiscoverySession(execution="process")``)
  and the HTTP front end with admission control and per-tenant quotas
  (the ``serve`` CLI subcommand);
* :mod:`repro.baselines` — SCR, MCR, the JOSIE-based adaptations, and the
  prefix-tree related-work baseline;
* :mod:`repro.lake` — data-lake ingestion from CSV files, corpus
  profiling, and column type inference;
* :mod:`repro.extensions` — similarity joins, duplicate detection, union
  search, and composite-key discovery;
* :mod:`repro.datagen` — synthetic corpora and the Table 1 query workloads;
* :mod:`repro.experiments` — one module per table/figure of the paper plus
  the extension studies;
* :mod:`repro.telemetry` — end-to-end observability: request tracing with
  cross-process span trees, the metrics registry behind ``GET /metrics``,
  trace-correlated JSON logging, and the slow-query log.

Quickstart::

    from repro import DiscoveryRequest, DiscoverySession, MateConfig
    from repro.datagen import build_workload

    workload = build_workload("WT_100", seed=7)
    config = MateConfig(hash_size=128, k=10, expected_unique_values=100_000)
    with DiscoverySession(workload.corpus, config=config) as session:
        result = session.discover(DiscoveryRequest(query=workload.queries[0]))
        for table in result.tables:
            print(table.table_id, table.joinability)

Every registered engine (``mate``, ``sharded``, ``scr``, ``mcr``, ``josie``,
``prefix_tree``) is reachable through the same session via
``DiscoveryRequest(engine=...)``; per-request limits
(``deadline_seconds`` / ``max_pl_fetches``) and async submission
(:meth:`DiscoverySession.asubmit <repro.api.session.DiscoverySession.asubmit>`)
ride on the request object, and :meth:`DiscoverySession.discover_batch
<repro.api.session.DiscoverySession.discover_batch>` answers a batch with
probe-value deduplication and worker-pool scheduling.  A session serves one
index; the ``sharded`` engine splits the corpus into table shards.  A
:class:`MateDiscovery` built by hand keeps working.
"""

from .api import (
    BatchStats,
    DiscoveryRequest,
    DiscoverySession,
    EngineRegistry,
    RequestBudget,
    SCHEMA_VERSION,
    SessionBatch,
    SessionResult,
    available_engines,
)
from .config import (
    DEFAULT_CONFIG,
    MateConfig,
    ServiceConfig,
    required_number_of_ones,
)
from .core import (
    DiscoveryResult,
    MateDiscovery,
    ShardedMateDiscovery,
    TableResult,
    exact_joinability,
    exact_joinability_score,
    top_k_by_exact_joinability,
)
from .datamodel import QueryTable, Row, Table, TableCorpus
from .lake import DataLake
from .exceptions import (
    ConfigurationError,
    CorpusError,
    DataModelError,
    DiscoveryError,
    EngineNotFoundError,
    HashingError,
    IndexClosedError,
    MateError,
    StorageError,
)
from .hashing import (
    SuperKeyGenerator,
    XashHashFunction,
    available_hash_functions,
    create_hash_function,
)
from .index import (
    IndexBuilder,
    InvertedIndex,
    build_index,
)
from .ingest import CompactionPolicy, Compactor, IngestBuffer, LiveIndex
from .plan import Executor, Planner, PlannerOptions, QueryPlan
from .sketch import (
    ColumnSketch,
    SketchIndex,
    SketchIndexConfig,
    SketchOptions,
    build_sketch_index,
)
from .serve import (
    AdmissionController,
    DiscoveryHTTPServer,
    ProcessShardPool,
    ServeConfig,
    TenantQuota,
)
from .telemetry import (
    MetricsRegistry,
    SlowQueryLog,
    Telemetry,
    Tracer,
    read_trace_file,
    span_tree,
)

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "BatchStats",
    "ColumnSketch",
    "CompactionPolicy",
    "Compactor",
    "ConfigurationError",
    "CorpusError",
    "DEFAULT_CONFIG",
    "DiscoveryRequest",
    "DiscoverySession",
    "DataLake",
    "DataModelError",
    "DiscoveryError",
    "DiscoveryHTTPServer",
    "DiscoveryResult",
    "EngineNotFoundError",
    "EngineRegistry",
    "Executor",
    "HashingError",
    "IndexBuilder",
    "IndexClosedError",
    "IngestBuffer",
    "InvertedIndex",
    "LiveIndex",
    "MateConfig",
    "MateDiscovery",
    "MateError",
    "MetricsRegistry",
    "Planner",
    "PlannerOptions",
    "ProcessShardPool",
    "QueryPlan",
    "QueryTable",
    "RequestBudget",
    "Row",
    "SCHEMA_VERSION",
    "ServeConfig",
    "ServiceConfig",
    "SessionBatch",
    "SessionResult",
    "ShardedMateDiscovery",
    "SketchIndex",
    "SketchIndexConfig",
    "SketchOptions",
    "SlowQueryLog",
    "StorageError",
    "SuperKeyGenerator",
    "Table",
    "TableCorpus",
    "TableResult",
    "Telemetry",
    "TenantQuota",
    "Tracer",
    "XashHashFunction",
    "available_engines",
    "available_hash_functions",
    "build_index",
    "build_sketch_index",
    "create_hash_function",
    "exact_joinability",
    "exact_joinability_score",
    "read_trace_file",
    "required_number_of_ones",
    "span_tree",
    "top_k_by_exact_joinability",
    "__version__",
]
