"""Experiment harness: one module per table/figure of the paper's Section 7.

| Paper artefact        | Function                                   |
|-----------------------|--------------------------------------------|
| Table 1               | :func:`repro.experiments.run_table1`       |
| Index generation §7.1 | :func:`repro.experiments.run_index_generation` |
| Figure 4              | :func:`repro.experiments.run_figure4`      |
| Table 2               | :func:`repro.experiments.run_table2`       |
| Table 3               | :func:`repro.experiments.run_table3`       |
| Figure 5              | :func:`repro.experiments.run_figure5`      |
| Figure 6              | :func:`repro.experiments.run_figure6`      |
| Section 7.5.1 (top-k) | :func:`repro.experiments.run_topk`         |
| Section 7.5.4         | :func:`repro.experiments.run_init_column`  |

Every function takes an :class:`ExperimentSettings` controlling the scale
(queries per set, corpus scale, hash sizes, k) and returns an
:class:`ExperimentResult` whose ``to_text()`` renders the same rows/series the
paper reports.

Beyond the paper's own artefacts, extension studies use the same
harness: corpus-size scaling (:func:`run_scaling`), the simulated disk
fetch cost (:func:`run_fetch_cost`), the rare-character frequency source
(:func:`run_frequency_source`), sharded scale-out discovery
(:func:`run_sharding`), the prefix-tree related-work comparison
(:func:`run_related_work`), the short-key-value study
(:func:`run_short_values`), the process-pool serving comparison
(:func:`run_serving`), the packed posting-layout study
(:func:`run_columnar`), and the online-ingestion study
(:func:`run_ingest`), the query-planner study
(:func:`run_planner`), the approximate sketch-tier study
(:func:`run_sketch`), the telemetry overhead study
(:func:`run_telemetry`), and the SQL-pushdown engine comparison
(:func:`run_pushdown`).
"""

from .columnar import DEFAULT_COLUMNAR_WORKLOAD, run_columnar
from .fetch_cost import DEFAULT_FETCH_WORKLOADS, run_fetch_cost
from .figure4 import FIGURE4_SYSTEMS, run_figure4
from .figure5 import FIGURE5_BARS, run_figure5
from .figure6 import FIGURE6_SYSTEMS, build_keysize_scenario, run_figure6
from .frequency_source import FREQUENCY_SOURCES, run_frequency_source
from .index_stats import run_index_generation
from .ingest import DEFAULT_INGEST_WORKLOAD, INGEST_STATES, run_ingest
from .init_column import HEURISTIC_ORDER, run_init_column
from .planner import PLANNER_MODES_UNDER_TEST, run_planner
from .pushdown import PUSHDOWN_SCALE_FACTORS, run_pushdown
from .related_work import DEFAULT_RELATED_WORK_WORKLOADS, run_related_work
from .reporting import (
    format_ratio,
    format_table,
    result_to_csv,
    result_to_json,
    save_result,
)
from .scaling import DEFAULT_SCALE_FACTORS, run_scaling
from .serving import DEFAULT_SERVING_SHARDS, run_serving
from .sharding import DEFAULT_SHARD_COUNTS, run_sharding
from .sketch import (
    DEFAULT_SKETCH_THRESHOLD,
    SKETCH_MODES_UNDER_TEST,
    build_sketch_scenario,
    run_sketch,
)
from .short_values import (
    SHORT_VALUE_HASHES,
    build_short_value_scenario,
    run_short_values,
)
from .runner import (
    AggregatedRun,
    ExperimentResult,
    ExperimentSettings,
    WorkloadContext,
    aggregate_results,
    build_context,
    run_mate,
    run_system,
)
from .table1 import run_table1
from .telemetry import IDLE_OVERHEAD_LIMIT, TELEMETRY_MODES, run_telemetry
from .table2 import DEFAULT_TABLE2_WORKLOADS, TABLE2_HASHES, run_table2
from .table3 import DEFAULT_TABLE3_WORKLOADS, TABLE3_HASHES, run_table3
from .topk import TOPK_HASHES, run_topk

__all__ = [
    "AggregatedRun",
    "DEFAULT_COLUMNAR_WORKLOAD",
    "DEFAULT_FETCH_WORKLOADS",
    "DEFAULT_INGEST_WORKLOAD",
    "DEFAULT_RELATED_WORK_WORKLOADS",
    "DEFAULT_SCALE_FACTORS",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_SKETCH_THRESHOLD",
    "DEFAULT_TABLE2_WORKLOADS",
    "DEFAULT_TABLE3_WORKLOADS",
    "ExperimentResult",
    "ExperimentSettings",
    "FIGURE4_SYSTEMS",
    "FIGURE5_BARS",
    "FIGURE6_SYSTEMS",
    "FREQUENCY_SOURCES",
    "HEURISTIC_ORDER",
    "IDLE_OVERHEAD_LIMIT",
    "INGEST_STATES",
    "PUSHDOWN_SCALE_FACTORS",
    "SHORT_VALUE_HASHES",
    "SKETCH_MODES_UNDER_TEST",
    "TABLE2_HASHES",
    "TABLE3_HASHES",
    "TELEMETRY_MODES",
    "TOPK_HASHES",
    "WorkloadContext",
    "aggregate_results",
    "build_context",
    "build_keysize_scenario",
    "build_short_value_scenario",
    "build_sketch_scenario",
    "format_ratio",
    "format_table",
    "run_columnar",
    "run_fetch_cost",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_frequency_source",
    "run_index_generation",
    "run_ingest",
    "run_init_column",
    "run_mate",
    "run_planner",
    "run_pushdown",
    "run_related_work",
    "run_scaling",
    "run_serving",
    "run_sharding",
    "run_short_values",
    "run_sketch",
    "run_system",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_telemetry",
    "run_topk",
    "result_to_csv",
    "result_to_json",
    "save_result",
]
