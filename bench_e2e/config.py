"""Frozen sizes of the four workloads (reference scale and ``--smoke`` scale).

Everything here is an input-side constant of the benchmark: changing any
value changes what is measured, so a change to this file is a benchmark
change (its own PR, baseline re-measured), never part of a performance PR.
The sizes were tuned on the 2-core reference box so that one run (input
generation + three set-ups + ``run_seconds`` of measuring + the correctness
gate) takes ~25 s on a quiet box and stays under ~35 s inside a slow spell;
README.md records the measurements behind them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

#: Seed of everything *structural*: the query tables and the planted
#: joinable / distractor tables, and the shapes (rows, columns, column
#: types) of the base corpus.  ``--seed`` drives the base corpus' cell
#: values and every order (query order, ingest order).  README.md, section
#: "Seeds", explains why: per-query work depends so strongly on which Zipf
#: ranks a query's key values hit that seed-to-seed difficulty varied by
#: +-13 %, more than any bound a regression gate could use.
SHAPE_SEED = 20220607

#: ``k`` of every discovery request.
K = 10


@dataclass(frozen=True)
class QueryClass:
    """``count`` query tables of one key width and cardinality."""

    count: int
    key_size: int
    cardinality: int


@dataclass(frozen=True)
class InputSpec:
    """What :func:`bench_e2e.inputs.generate_inputs` builds for a workload."""

    #: ``"webtables"`` or ``"opendata"`` (a ``repro.datagen`` profile name).
    profile: str
    #: Scale factor on the profile's table count.
    base_scale: float
    classes: tuple[QueryClass, ...]
    joinable_per_query: int
    distractors_per_query: int


@dataclass(frozen=True)
class WorkloadConfig:
    """Sizes of one workload; the ingest fields are unused elsewhere."""

    name: str
    inputs: InputSpec
    #: How often the set-up is repeated (``setup_s`` is the median).
    repeats: int = 3
    # ---- ingest_mixed -----------------------------------------------
    #: Identical streams per run (each followed by a restart; the last by
    #: as many as it takes to make ``repeats`` set-ups).
    streams: int = 0
    #: One ``engine="live"`` discover after every this-many ingested tables.
    discover_every: int = 0
    #: ``session.remove`` of the oldest unplanted table after every
    #: this-many ingested tables.
    remove_every: int = 0
    max_buffer_rows: int = 0
    max_segments: int = 0


_WT = "webtables"
_OD = "opendata"

#: Why each workload exists is its ``why`` in ``BENCHMARK.json`` (and the
#: "Workloads" section of README.md).
WORKLOADS: dict[str, WorkloadConfig] = {
    config.name: config
    for config in (
        WorkloadConfig(
            name="wt_discover",
            inputs=InputSpec(
                profile=_WT,
                base_scale=0.5,
                classes=(QueryClass(24, 2, 16), QueryClass(6, 3, 60)),
                joinable_per_query=2,
                distractors_per_query=2,
            ),
        ),
        WorkloadConfig(
            name="od_verify",
            inputs=InputSpec(
                profile=_OD,
                base_scale=0.15,
                classes=(QueryClass(12, 2, 20),),
                joinable_per_query=3,
                distractors_per_query=2,
            ),
        ),
        WorkloadConfig(
            name="http_serve",
            inputs=InputSpec(
                profile=_WT,
                base_scale=0.2,
                classes=(QueryClass(40, 2, 4),),
                joinable_per_query=2,
                distractors_per_query=2,
            ),
        ),
        WorkloadConfig(
            name="ingest_mixed",
            inputs=InputSpec(
                profile=_WT,
                base_scale=0.55,
                classes=(QueryClass(20, 2, 16),),
                joinable_per_query=2,
                distractors_per_query=2,
            ),
            streams=2,
            discover_every=3,
            remove_every=25,
            max_buffer_rows=800,
            max_segments=4,
        ),
    )
}


def smoke_config(config: WorkloadConfig) -> WorkloadConfig:
    """The same workload shape at a size the tier-1 smoke test can afford."""
    spec = config.inputs
    classes = tuple(
        QueryClass(
            count=min(2, query_class.count),
            key_size=query_class.key_size,
            cardinality=min(6, query_class.cardinality),
        )
        for query_class in spec.classes
    )
    return replace(
        config,
        inputs=replace(
            spec,
            base_scale=0.02 if spec.profile == _WT else 0.017,
            classes=classes,
            joinable_per_query=1,
            distractors_per_query=1,
        ),
        repeats=1,
        streams=min(1, config.streams),
        max_buffer_rows=60,
    )
