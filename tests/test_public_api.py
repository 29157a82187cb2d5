"""API-surface snapshot: ``repro.__all__`` and every ``repro.*``
subpackage's ``__all__`` against checked-in lists.

The unified discovery API makes ``repro``'s top-level namespace a contract:
removing or renaming a name is a breaking change that must be made
deliberately.  This test pins the exported surface — any drift (an export
added, dropped, or renamed) fails CI until this snapshot is updated in the
same change, which is exactly the review point the contract needs.
"""

from __future__ import annotations

import importlib
import pkgutil

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
    "required_number_of_ones",
    "span_tree",
    "top_k_by_exact_joinability",
]


#: The ``__all__`` of every ``repro.*`` subpackage, pinned the same way:
#: a name added, dropped or renamed in a subpackage is a reviewed change
#: to this snapshot.
EXPECTED_SUBPACKAGE_EXPORTS = {
    "repro.api": [
        "BatchStats", "DEFAULT_ENGINE", "DEFAULT_REGISTRY", "DiscoveryRequest",
        "DiscoverySession", "EngineRegistry", "EngineSpec", "PlannerOptions",
        "RequestBudget", "SCHEMA_VERSION", "SessionBatch", "SessionResult",
        "SketchOptions", "available_engines", "json_envelope",
    ],
    "repro.baselines": [
        "ColumnId", "JosieIndex", "JosieMatch", "JosieSearch", "McrDiscovery",
        "McrJosieDiscovery", "PrefixTreeDiscovery", "ScrDiscovery", "ScrJosieDiscovery",
        "TablePrefixTree",
    ],
    "repro.core": [
        "COLUMN_SELECTORS", "DiscoveryResult", "MateDiscovery", "ROW_FILTER_MODES",
        "RankedTable", "RowFilter", "ShardStatistics", "ShardedMateDiscovery",
        "TableResult", "TopKHeap", "exact_joinability", "exact_joinability_score",
        "fetched_pl_count", "get_column_selector", "joinability_from_matches",
        "merge_discovery_results", "row_contains_key", "row_mappings",
        "select_best_case", "select_by_cardinality", "select_by_column_order",
        "select_by_longest_string", "select_worst_case", "shard_corpus",
        "should_abandon_table", "should_prune_table", "top_k_by_exact_joinability",
    ],
    "repro.datagen": [
        "COLUMN_FACTORIES", "CorpusProfile", "FIGURE4_WORKLOADS",
        "KEYABLE_COLUMN_TYPES", "OPEN_DATA_PROFILE", "PROFILES", "PlantedTable",
        "QueryWorkload", "SCHOOL_PROFILE", "SyntheticCorpusGenerator", "TABLE1_SPECS",
        "TABLE2_WORKLOADS", "WEB_TABLE_PROFILE", "WorkloadSpec",
        "build_all_table1_workloads", "build_workload", "generate_airline_query",
        "generate_corpus", "generate_entity_query", "generate_movie_query",
        "generate_school_query", "generate_sensor_query", "plant_distractor_table",
        "plant_joinable_table",
    ],
    "repro.datamodel": [
        "CorpusStatistics", "MISSING", "QueryTable", "Row", "Table", "TableCorpus",
        "normalize_value",
    ],
    "repro.engine_sql": [
        "MAX_NARROW_HASH_SIZE", "PUSHDOWN_STAGES", "SQLPushdownEngine",
        "STAGE_PUSHDOWN_SCAN", "build_accelerator", "key_width",
        "register_covers_function",
    ],
    "repro.experiments": [
        "AggregatedRun", "DEFAULT_RELATED_WORK_WORKLOADS", "DEFAULT_SCALE_FACTORS",
        "DEFAULT_SHARD_COUNTS", "DEFAULT_TABLE2_WORKLOADS", "DEFAULT_TABLE3_WORKLOADS",
        "ExperimentResult", "ExperimentSettings", "FIGURE4_SYSTEMS", "FIGURE5_BARS",
        "FIGURE6_SYSTEMS", "FREQUENCY_SOURCES", "HEURISTIC_ORDER", "SHORT_VALUE_HASHES",
        "TABLE2_HASHES", "TABLE3_HASHES", "TOPK_HASHES", "WorkloadContext",
        "aggregate_results", "build_context", "build_keysize_scenario",
        "build_short_value_scenario", "format_table", "result_to_csv",
        "result_to_json", "run_figure4", "run_figure5", "run_figure6",
        "run_frequency_source", "run_index_generation", "run_init_column", "run_mate",
        "run_related_work", "run_scaling", "run_sharding", "run_short_values",
        "run_system", "run_table1", "run_table2", "run_table3", "run_topk",
        "save_result",
    ],
    "repro.extensions": [
        "DuplicateRowPair", "DuplicateTableResult", "KeyCandidate", "SimilarRowMatch",
        "SimilarityJoinDiscovery", "SimilarityTableResult", "UnionCandidate",
        "UnionSearch", "discover_key_candidates", "evaluate_combination",
        "find_duplicate_rows", "find_duplicate_tables", "levenshtein_distance",
        "rank_key_candidates", "suggest_query", "xash_similarity",
    ],
    "repro.hashing": [
        "BloomFilterHashFunction", "CityHashFunction", "FIGURE5_VARIANTS",
        "HashFunction", "HashTableHashFunction", "LessHashingBloomFilter",
        "Md5HashFunction", "MurmurHashFunction", "ShortValueXashHashFunction",
        "SimHashFunction", "SuperKeyGenerator", "XashHashFunction",
        "available_hash_functions", "bigram_bucket", "city_hash_64",
        "create_hash_function", "false_positive_probability", "fold", "mask",
        "murmur3_32", "murmur3_string", "murmur3_x64_128", "normalize_character",
        "optimal_number_of_hashes", "popcount", "register_hash_function", "rotate_left",
        "subsumes",
    ],
    "repro.index": [
        "FetchBlock", "IndexBuildReport", "IndexBuilder",
        "IndexStorageReport", "InvertedIndex",
        "JOSIE_BYTES_PER_ENTRY", "SCR_BYTES_PER_ENTRY",
        "bits_to_bytes", "build_index", "entry_coverage", "storage_report",
    ],
    "repro.ingest": [
        "CompactionPolicy", "Compactor", "IngestBuffer", "LiveIndex", "LiveSnapshot",
        "Segment", "WalRecord", "WriteAheadLog", "merge_segments", "replay_wal",
    ],
    "repro.lake": [
        "ColumnStatistics", "ColumnType", "CorpusProfile", "CorpusProfiler", "DataLake",
        "ValueFrequencyProfile", "character_frequencies_from_values", "classify_value",
        "corpus_character_frequencies", "infer_column_type", "profile_column",
        "profile_corpus", "profile_table", "value_frequency_profile",
    ],
    "repro.metrics": [
        "CacheCounters", "DiscoveryCounters", "PrecisionSummary", "ServeMetrics",
        "StageStats", "summarize_precision",
    ],
    "repro.plan": [
        "CandidateGeneration", "DEFAULT_PLANNER_OPTIONS", "Executor", "PIPELINE_STAGES",
        "PLANNER_MODES", "PlanContext", "PlanReport", "PlanStage", "Planner",
        "PlannerOptions", "QueryPlan", "RowVerification",
        "SKETCH_PIPELINE_STAGES", "STAGE_SKETCH_PRUNE", "SeedCandidate", "SketchPrune",
        "StageResult", "SuperKeyPrefilter", "TopKMaintenance",
    ],
    "repro.serve": [
        "AdmissionController", "AdmissionDecision", "AdmissionTicket",
        "DiscoveryHTTPServer", "PROTOCOL_VERSION", "ProcessShardPool", "ServeConfig",
        "ShardError", "ShardQuery", "ShardResult", "Shutdown", "TenantQuota",
        "WorkerReady", "run_server", "split_budget",
    ],
    "repro.sketch": [
        "ColumnSketch", "DEFAULT_SKETCH_CONFIG", "DEFAULT_SKETCH_OPTIONS",
        "SKETCH_FILE_STEM", "SKETCH_FORMAT_VERSION", "SKETCH_SUFFIX", "SketchIndex",
        "SketchIndexConfig", "SketchOptions", "build_sketch_index",
        "containment_estimate", "jaccard_estimate", "minhash_signature",
        "permutation_params",
    ],
    "repro.storage": [
        "SEGMENT_FORMAT_VERSION", "SEGMENT_MAGIC", "SEGMENT_SUFFIX", "corpus_from_json",
        "corpus_to_json", "load_corpus_json", "load_segment", "reopen_segment",
        "save_corpus_json", "table_from_csv", "table_to_csv", "write_segment",
    ],
    "repro.telemetry": [
        "CollectingExporter", "Counter", "DEFAULT_LATENCY_BUCKETS", "Histogram",
        "InMemoryExporter", "JsonLinesExporter", "JsonLogFormatter", "MetricsRegistry",
        "NullExporter", "SlowQueryEntry", "SlowQueryLog", "Span", "SpanExporter",
        "Telemetry", "TraceContext", "Tracer", "configure_json_logging", "current_span",
        "current_trace_id", "read_trace_file", "span_tree",
    ],
}


def test_public_surface_matches_snapshot():
    assert sorted(repro.__all__) == EXPECTED_EXPORTS, (
        "repro.__all__ drifted from the checked-in snapshot; if the change "
        "is intentional, update tests/test_public_api.py in the same commit"
    )
    subpackages = sorted(
        f"repro.{module.name}"
        for module in pkgutil.iter_modules(repro.__path__)
        if module.ispkg
    )
    assert subpackages == sorted(EXPECTED_SUBPACKAGE_EXPORTS), (
        "a repro.* subpackage was added or removed; pin its __all__ in "
        "EXPECTED_SUBPACKAGE_EXPORTS in the same commit"
    )


@pytest.mark.parametrize("module_name", sorted(EXPECTED_SUBPACKAGE_EXPORTS))
def test_subpackage_surface_matches_snapshot(module_name):
    module = importlib.import_module(module_name)
    expected = EXPECTED_SUBPACKAGE_EXPORTS[module_name]
    assert sorted(module.__all__) == expected, (
        f"{module_name}.__all__ drifted from the checked-in snapshot; if the "
        "change is intentional, update tests/test_public_api.py in the same "
        "commit"
    )
    for name in expected:
        assert hasattr(module, name), f"{module_name}.{name} is missing"


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
#: with it: an index is one immutable CSR block (``InvertedIndex``); a
#: sharded index is a partition of one.
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


#: The in-place edit surface: a static index, its row keys, its builder and
#: a table are immutable, so none has a mutator.
REMOVED_MUTATORS = [
    ("repro.index", "InvertedIndex", mutator)
    for mutator in (
        "add_posting",
        "set_posting_columns",
        "set_super_key",
        "or_into_super_key",
        "remove_row",
        "remove_column",
        "remove_table",
        "replace_block",
        "has_row",
    )
] + [
    ("repro.index", "IndexBuilder", "add_table"),
    ("repro.index.inverted", "RowKeys", "__contains__"),
    ("repro.datamodel", "Table", "append_row"),
]


@pytest.mark.parametrize(
    "module_name, owner, name",
    REMOVED_MUTATORS,
    ids=[f"{owner}-{name}" for _module, owner, name in REMOVED_MUTATORS],
)
def test_an_index_and_a_table_have_no_mutator(module_name, owner, name):
    """Every corpus edit goes through the session over a ``LiveIndex``
    (``remove``, then ``ingest`` of the edited copy)."""
    assert not hasattr(getattr(importlib.import_module(module_name), owner), name)


@pytest.mark.parametrize("name", ["ValueEncoder", "EncodedKeys", "ENCODER"])
def test_the_process_wide_value_dictionary_is_gone(name):
    """Row verification reads the index's postings: no encoder, encoded key
    matrix or process-wide dictionary is left to keep."""
    assert not hasattr(importlib.import_module("repro.datamodel.encoding"), name)


@pytest.mark.parametrize("module_name", ["repro", "repro.index"])
def test_the_index_maintainer_is_gone(module_name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), "IndexMaintainer")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.index.maintenance")


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


def test_batch_stats_moved():
    from repro.api.results import BatchStats

    assert repro.BatchStats is BatchStats


#: The LRU posting-list cache and everything that fed, sized or warmed it:
#: the index memoises one fetch block per value itself.
REMOVED_CACHE_NAMES = [
    ("repro.index", "ColumnarPostingList"),
    ("repro.index.columnar", "ColumnarPostingList"),
]

REMOVED_CACHE_MEMBERS = [
    ("repro.index.columnar.FetchBlock", "empty"),
    ("repro.config.ServiceConfig", "cache_capacity"),
    ("repro.api.results.BatchStats", "distinct_probe_values"),
    ("repro.api.results.BatchStats", "duplicate_probe_values"),
    ("repro.api.results.BatchStats", "cache"),
    ("repro.api.registry.EngineSpec", "supports_probe_values"),
    ("repro.api.session.DiscoverySession", "_warm_cache"),
    ("repro.api.session.DiscoverySession", "_invalidate_cache"),
    ("repro.core.discovery.MateDiscovery", "probe_values"),
    ("repro.engine_sql.engine.SQLPushdownEngine", "probe_values"),
    ("repro.metrics.counters.CacheCounters", "as_dict"),
]


def test_the_posting_list_cache_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.index.cache")


@pytest.mark.parametrize("module_name, name", REMOVED_CACHE_NAMES)
def test_the_posting_list_cache_names_are_gone(module_name, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module_name), name)


@pytest.mark.parametrize("owner, name", REMOVED_CACHE_MEMBERS)
def test_the_posting_list_cache_members_are_gone(owner, name):
    module_name, class_name = owner.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), class_name)
    assert not hasattr(cls, name)
    assert name not in getattr(cls, "__dataclass_fields__", {})


def test_register_takes_no_probe_values_capability():
    from repro.api.registry import EngineRegistry

    with pytest.raises(TypeError, match="supports_probe_values"):
        EngineRegistry().register(
            "probe", lambda session, request: None, supports_probe_values=True
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


#: Sketch signing left the write path: the session signs at its first
#: sketch-mode read, and no index or builder owns, signs or loads a store.
REMOVED_WRITE_PATH_SKETCH_MEMBERS = [
    ("repro.ingest.live.LiveIndex", "sketch_index"),
    ("repro.index.builder.IndexBuilder", "build_with_sketches"),
    ("repro.sketch.index.SketchIndex", "load_file"),
]


@pytest.mark.parametrize("owner, name", REMOVED_WRITE_PATH_SKETCH_MEMBERS)
def test_the_write_path_sketch_members_are_gone(owner, name):
    module_name, class_name = owner.rsplit(".", 1)
    cls = getattr(importlib.import_module(module_name), class_name)
    assert not hasattr(cls, name)


def test_an_index_builder_takes_no_sketch_config():
    from repro.index import IndexBuilder

    with pytest.raises(TypeError, match="sketch_config"):
        IndexBuilder(sketch_config=None)
    assert not hasattr(IndexBuilder(), "last_sketch_index")
