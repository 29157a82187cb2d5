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
harness: corpus-size scaling (:func:`run_scaling`), the rare-character
frequency source (:func:`run_frequency_source`), sharded scale-out
discovery (:func:`run_sharding`), the prefix-tree related-work comparison
(:func:`run_related_work`), and the short-key-value study
(:func:`run_short_values`).  :mod:`repro.experiments.scenarios` holds the
skewed fixture corpora the planner and sketch-tier tests run on.
"""

from .figure4 import FIGURE4_SYSTEMS, run_figure4
from .figure5 import FIGURE5_BARS, run_figure5
from .figure6 import FIGURE6_SYSTEMS, build_keysize_scenario, run_figure6
from .frequency_source import FREQUENCY_SOURCES, run_frequency_source
from .index_stats import run_index_generation
from .init_column import HEURISTIC_ORDER, run_init_column
from .related_work import DEFAULT_RELATED_WORK_WORKLOADS, run_related_work
from .reporting import (
    format_table,
    result_to_csv,
    result_to_json,
    save_result,
)
from .scaling import DEFAULT_SCALE_FACTORS, run_scaling
from .sharding import DEFAULT_SHARD_COUNTS, run_sharding
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
from .table2 import DEFAULT_TABLE2_WORKLOADS, TABLE2_HASHES, run_table2
from .table3 import DEFAULT_TABLE3_WORKLOADS, TABLE3_HASHES, run_table3
from .topk import TOPK_HASHES, run_topk

__all__ = [
    "AggregatedRun",
    "DEFAULT_RELATED_WORK_WORKLOADS",
    "DEFAULT_SCALE_FACTORS",
    "DEFAULT_SHARD_COUNTS",
    "DEFAULT_TABLE2_WORKLOADS",
    "DEFAULT_TABLE3_WORKLOADS",
    "ExperimentResult",
    "ExperimentSettings",
    "FIGURE4_SYSTEMS",
    "FIGURE5_BARS",
    "FIGURE6_SYSTEMS",
    "FREQUENCY_SOURCES",
    "HEURISTIC_ORDER",
    "SHORT_VALUE_HASHES",
    "TABLE2_HASHES",
    "TABLE3_HASHES",
    "TOPK_HASHES",
    "WorkloadContext",
    "aggregate_results",
    "build_context",
    "build_keysize_scenario",
    "build_short_value_scenario",
    "format_table",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_frequency_source",
    "run_index_generation",
    "run_init_column",
    "run_mate",
    "run_related_work",
    "run_scaling",
    "run_sharding",
    "run_short_values",
    "run_system",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_topk",
    "result_to_csv",
    "result_to_json",
    "save_result",
]
