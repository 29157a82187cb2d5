"""API-surface snapshot: ``repro.__all__`` against a checked-in list.

The unified discovery API makes ``repro``'s top-level namespace a contract:
removing or renaming a name is a breaking change that must be made
deliberately.  This test pins the exported surface — any drift (an export
added, dropped, or renamed) fails CI until this snapshot is updated in the
same change, which is exactly the review point the contract needs.
"""

from __future__ import annotations

import importlib

import pytest

import repro

#: The public surface of ``repro`` as of schema version 2.  Update this list
#: (and the README's Public API section, and ``SCHEMA_VERSION`` if response
#: field names changed) in the same commit as any export change.
EXPECTED_EXPORTS = [
    "AdmissionController",
    "BatchStats",
    "ColumnSketch",
    "CompactionPolicy",
    "Compactor",
    "ConfigurationError",
    "CorpusError",
    "DEFAULT_CONFIG",
    "DataLake",
    "DataModelError",
    "DiscoveryError",
    "DiscoveryHTTPServer",
    "DiscoveryRequest",
    "DiscoveryResult",
    "DiscoverySession",
    "EngineNotFoundError",
    "EngineRegistry",
    "Executor",
    "HashingError",
    "IndexBuilder",
    "IndexClosedError",
    "IndexMaintainer",
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
    "__version__",
    "available_engines",
    "available_hash_functions",
    "build_index",
    "build_sketch_index",
    "create_hash_function",
    "exact_joinability",
    "exact_joinability_score",
    "read_trace_file",
    "register_engine",
    "required_number_of_ones",
    "span_tree",
    "table_from_dicts",
    "top_k_by_exact_joinability",
]


def test_public_surface_matches_snapshot():
    assert sorted(repro.__all__) == EXPECTED_EXPORTS, (
        "repro.__all__ drifted from the checked-in snapshot; if the change "
        "is intentional, update tests/test_public_api.py in the same commit"
    )


def test_all_names_are_importable():
    for name in EXPECTED_EXPORTS:
        assert hasattr(repro, name), f"repro.{name} is exported but missing"


def test_no_unexported_dunder_leaks():
    exported = set(repro.__all__)
    assert "__version__" in exported
    assert all(name.isidentifier() for name in exported)


def test_session_and_request_are_the_documented_front_door():
    """The quickstart docstring names the session API, not the old one."""
    docstring = repro.__doc__ or ""
    assert "DiscoverySession" in docstring
    assert "DiscoveryRequest" in docstring


#: What selected the second and third copies of each array operation, gone
#: with them: numpy is required and every lane is its array pass.
REMOVED_LANE_NAMES = [
    ("repro.index", name)
    for name in (
        "PrefilterResult",
        "active_kernel",
        "numpy_available",
        "pack_super_keys",
        "prefilter_block",
        "prefilter_table_block",
        "set_kernel",
        "use_kernel",
    )
] + [
    ("repro.index.kernels", name)
    for name in ("KERNEL_CHOICES", "KERNEL_ENV_VAR", "kernel_choice")
] + [
    ("repro.sketch", name)
    for name in (
        "SKETCH_CHOICES",
        "SKETCH_ENV_VAR",
        "active_sketch_kernel",
        "set_sketch_kernel",
        "sketch_kernel_choice",
        "sketch_numpy_available",
        "use_sketch_kernel",
    )
]


@pytest.mark.parametrize("module_name, name", REMOVED_LANE_NAMES)
def test_the_lane_switches_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)
    with pytest.raises(ImportError):
        exec(f"from {module_name} import {name}", {})


#: The mutable per-value store and everything that served or fed it, gone
#: with it: an index is one CSR block (``InvertedIndex``), replaced whole by
#: ``replace_block``; a sharded index is a partition of one.
REMOVED_INDEX_NAMES = [
    ("repro.index", "PackedSuperKeys"),
    ("repro.index", "MappedShardedIndex"),
    ("repro.index.columnar", "PackedSuperKeys"),
    ("repro.storage", "MappedSegmentIndex"),
    ("repro.storage", "MappedSuperKeys"),
    ("repro.storage.paged", "block_of"),
    ("repro.storage.segment_block", "flatten_index"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_INDEX_NAMES)
def test_the_second_index_representation_is_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize(
    "owner, name",
    [("InvertedIndex", mutator) for mutator in (
        "add_posting",
        "set_posting_columns",
        "set_super_key",
        "or_into_super_key",
        "remove_row",
        "remove_column",
        "remove_table",
    )]
    + [("IndexBuilder", "add_table")],
)
def test_replace_block_is_the_only_mutator(owner, name):
    assert not hasattr(getattr(repro, owner), name)
    assert hasattr(repro.InvertedIndex, "replace_block")


#: The old service layer, gone with the value-hash index partition it
#: served: a session serves one index (``DiscoverySession``), behind the
#: cache of ``repro.index.cache``; "sharding" is the ``"sharded"`` engine's
#: table shards.
REMOVED_SERVICE_NAMES = [
    ("repro", name)
    for name in (
        "BatchDiscoveryResult",
        "DiscoveryService",
        "ShardedInvertedIndex",
        "build_sharded_index",
    )
] + [
    ("repro.index", name)
    for name in (
        "ShardedInvertedIndex",
        "build_sharded_index",
        "open_shard_segments",
        "save_shard_segments",
        "shard_of_value",
    )
] + [
    ("repro.storage", name)
    for name in (
        "list_sharded_indexes",
        "load_sharded_index",
        "save_sharded_index",
        "shard_index_name",
    )
] + [
    ("repro.storage.segment_block", "partition_block"),
    ("repro.experiments", "run_batch_service"),
    ("repro.experiments", "DEFAULT_SERVICE_SHARD_COUNTS"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_SERVICE_NAMES)
def test_the_service_layer_names_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize(
    "module_name",
    ["repro.service", "repro.service.cache", "repro.service.service",
     "repro.index.sharded", "repro.storage.sharded",
     "repro.experiments.batch_service"],
)
def test_the_service_layer_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_the_cache_and_batch_stats_moved():
    from repro.api.results import BatchStats
    from repro.index.cache import CachingIndex, PostingListCache

    assert repro.BatchStats is BatchStats
    assert CachingIndex.__module__ == PostingListCache.__module__ == (
        "repro.index.cache"
    )


#: The table-at-a-time execution path and everything only it kept alive:
#: every request runs on request-level arrays (``repro.index.batch``) over
#: blocks that always carry their packed key buffer.
REMOVED_TABLE_PATH_NAMES = [
    ("repro.index", name)
    for name in (
        "TableBlock",
        "compute_table_runs",
        "fetch_table_blocks",
        "group_into_table_blocks",
    )
] + [
    ("repro.index.columnar", name)
    for name in (
        "TableBlock",
        "TableRun",
        "ValueRun",
        "compute_table_runs",
        "fetch_table_blocks",
        "group_into_table_blocks",
    )
] + [
    ("repro.index.kernels", "_entry_scalar"),
    ("repro.storage.segment_block", "Spill"),
    ("repro.storage.segment_block", "_unpacked"),
    # The paged-store model reads the index's key width.
    ("repro.storage.paged", "BYTES_PER_SUPER_KEY"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_TABLE_PATH_NAMES)
def test_the_table_at_a_time_path_is_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize(
    "owner, name",
    [
        ("repro.plan.stages.SuperKeyPrefilter", "_execute_rows"),
        ("repro.plan.stages.CandidateGeneration", "_table_path_reason"),
        ("repro.plan.planner.PlanReport", "execution_path"),
        ("repro.plan.planner.PlanReport", "table_path_reason"),
        ("repro.index.columnar.FetchBlock", "runs"),
        ("repro.index.columnar.ColumnarPostingList", "runs"),
        ("repro.index.columnar.ColumnarPostingList", "super_keys"),
        ("repro.storage.segment_block.SegmentBlock", "spill"),
        ("repro.storage.segment_block.SegmentBlock", "unpacked"),
        ("repro.index.inverted.RowKeys", "_spill"),
        # Segment format v3: a posting is (row ordinal, column).
        ("repro.storage.segment_block.SegmentBlock", "table_ids"),
        ("repro.storage.segment_block.SegmentBlock", "row_indexes"),
        ("repro.storage.segment_block.SegmentBlock", "posting_keys"),
    ],
)
def test_the_table_path_members_are_gone(owner, name):
    module_name, class_name = owner.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), class_name)
    assert name not in getattr(cls, "__slots__", ())
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__dataclass_fields__", {})


#: The second, third and fourth ways to persist an index, gone with them:
#: a live-index directory (``.seg`` segments + manifest) is the one format,
#: and the ``"sql"`` engine always builds its accelerator in memory.
REMOVED_STORAGE_NAMES = [
    ("repro.storage", name)
    for name in (
        "INDEX_FORMAT_VERSION",
        "InMemoryBackend",
        "SQLiteBackend",
        "StorageBackend",
        "index_from_payload",
        "index_to_payload",
        "load_index_json",
        "save_index_json",
    )
] + [
    ("repro.storage.serialization", name)
    for name in (
        "INDEX_FORMAT_VERSION",
        "index_from_payload",
        "index_to_payload",
        "load_index_json",
        "save_index_json",
    )
] + [
    (module_name, name)
    for module_name in ("repro.engine_sql", "repro.engine_sql.accelerator")
    for name in (
        "PUSHDOWN_FORMAT_VERSION",
        "accelerator_matches",
        "accelerator_meta",
        "ensure_accelerator",
        "ensure_accelerator_schema",
    )
] + [
    ("repro.cli", "_refuse_sharded_records"),
    ("repro.cli", "_stored_layout_config"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_STORAGE_NAMES)
def test_the_other_index_formats_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize(
    "module_name",
    ["repro.storage.backend", "repro.storage.memory", "repro.storage.sqlite"],
)
def test_the_storage_backend_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


@pytest.mark.parametrize(
    "keyword, value",
    [("storage", None), ("backend", None), ("index_name", "main")],
)
def test_the_storage_keywords_are_gone(keyword, value):
    from repro.engine_sql import SQLPushdownEngine

    corpus = repro.TableCorpus(name="empty")
    index = repro.build_index(corpus)
    factory = (
        repro.DiscoverySession if keyword == "storage" else SQLPushdownEngine
    )
    with pytest.raises(TypeError, match=keyword):
        factory(corpus, index, **{keyword: value})


#: The subsystem smoke studies and the simulated paged store they fed:
#: ``bench_e2e`` measures every layer, and tier-1 tests hold the answers.
REMOVED_SMOKE_LAYER_NAMES = [
    ("repro.experiments", name)
    for name in (
        "build_sketch_scenario",
        "run_columnar",
        "run_fetch_cost",
        "run_ingest",
        "run_planner",
        "run_pushdown",
        "run_serving",
        "run_sketch",
        "run_telemetry",
    )
] + [
    (module_name, name)
    for module_name in ("repro.storage", "repro.storage.paged")
    for name in ("FetchAccounting", "FetchCostModel", "PagedPostingStore")
] + [
    ("repro.storage.paged", "BYTES_PER_POSTING"),
    ("repro.api.schema", "KIND_BENCHMARK"),
]


@pytest.mark.parametrize("module_name, name", REMOVED_SMOKE_LAYER_NAMES)
def test_the_smoke_layer_names_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize(
    "module_name",
    [
        f"repro.experiments.{name}"
        for name in (
            "columnar", "fetch_cost", "ingest", "planner", "pushdown",
            "serving", "sketch", "telemetry",
        )
    ],
)
def test_the_smoke_study_modules_are_gone(module_name):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


def test_the_worker_start_timeout_is_a_constant():
    from repro.serve.pool import WORKER_START_TIMEOUT

    assert WORKER_START_TIMEOUT == 60.0
    with pytest.raises(TypeError, match="worker_start_timeout"):
        repro.ServeConfig(worker_start_timeout=5.0)
