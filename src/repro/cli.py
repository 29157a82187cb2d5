"""Command-line interface for the MATE reproduction.

Four sub-commands cover the typical workflow:

``generate``
    Generate a synthetic Table 1 workload and write the corpus (and query
    tables) to a JSON file.
``index``
    Build the extended inverted index for a corpus JSON file into a
    live-index directory (``--live-dir``: manifest, ``.seg`` segments,
    WAL, ``corpus.json``) — the one persisted index format.  It
    runs what ``ingest --compact`` runs, sealing once at the end, into a
    fresh or empty directory (a non-empty one is refused).
``discover``
    Run any registered discovery engine (``--engine``, see
    :mod:`repro.api.registry`) against an indexed corpus for a query table
    given as CSV plus a list of key columns; supports per-request limits
    (``--deadline-seconds`` / ``--max-pl-fetches``) and ``--json`` output in
    the versioned response schema.  ``--live-dir`` serves a read-only
    snapshot of a directory ``index`` or ``ingest`` wrote (or is writing),
    at its stored hash layout; without it the index is built in memory.
``experiment``
    Run one of the paper's experiments (table1, table2, table3, figure4,
    figure5, figure6, topk, init_column, index_generation) or one of the
    extension studies (scaling, fetch_cost, frequency_source, sharding,
    related_work, short_values, ingest, sketch); print the
    resulting table and optionally save it as text/CSV/JSON via ``--out``.
``similarity``
    Top-k *similarity-join* discovery (edit-distance tolerant matching on
    top of the XASH prefilter); ``--sketch-threshold`` engages the
    MinHash-LSH candidate tier of :mod:`repro.sketch` so only tables whose
    estimated containment clears the threshold are verified.
``union``
    Top-k table *union search* (column-domain alignment through the
    inverted index), with the same optional sketch prefilter.
``serve``
    Serve discovery requests over HTTP
    (:class:`~repro.serve.http.DiscoveryHTTPServer`): bounded admission with
    429 + Retry-After backpressure, per-tenant quotas, graceful drain on
    SIGINT/SIGTERM, and ``--execution process`` for the process-per-shard
    pool (scatter/gather over mmap'd segments).
``serve-batch``
    Answer a batch of query tables through a
    :class:`~repro.api.session.DiscoverySession`: one index (built in memory,
    or a snapshot of ``--live-dir``) and a worker pool.  Prints the
    per-query top-k plus batch throughput (or ``--json``).
``ingest``
    Stream tables from a directory of CSV files (via the lake loader) or a
    corpus JSON file into a *persisted live index* directory: every
    table is WAL-logged, indexed online into the delta buffer, and sealed /
    merged into columnar segments by the compaction policy.  Re-running with
    the same ``--live-dir`` resumes (crash recovery replays the WAL first);
    already-live table ids are skipped.
``profile``
    Profile a data lake (a directory of CSV tables or a corpus JSON file):
    table/row/value counts, column type mix, posting-list-length skew, and
    the recommended MATE configuration.
``suggest-key``
    Discover composite-key candidates (unique column combinations) for a CSV
    table, the undocumented-key situation the paper's introduction describes.
``slowlog``
    Fetch a running server's slow-query log (``GET /v1/slow``) and print
    each entry with its trace id, per-stage timings, and budget state.

``discover`` and ``serve`` additionally take ``--trace-out`` (export the
request's span tree as JSONL — one line per span, across every worker
process) and ``--log-json`` (structured JSON logs on stderr, each record
carrying the current ``trace_id``).

Example::

    python -m repro.cli experiment figure5 --queries 2 --scale 0.2
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .api import DiscoveryRequest, DiscoverySession, available_engines
from .config import MateConfig, ServiceConfig
from .exceptions import StorageError
from .plan import PLANNER_MODES, PlannerOptions
from .datagen import TABLE1_SPECS, build_workload
from .datamodel import QueryTable
from .experiments import (
    ExperimentSettings,
    run_figure4,
    run_figure5,
    run_figure6,
    run_frequency_source,
    run_index_generation,
    run_init_column,
    run_related_work,
    run_scaling,
    run_sharding,
    run_short_values,
    run_table1,
    run_table2,
    run_table3,
    run_topk,
)
from .extensions import SimilarityJoinDiscovery, UnionSearch, discover_key_candidates
from .datamodel import TableCorpus
from .index import build_index
from .ingest import CompactionPolicy, Compactor, LiveIndex
from .ingest.live import MANIFEST_FILE, LiveSnapshot, read_snapshot, sync_directory
from .sketch import SketchOptions, build_sketch_index
from .lake import DataLake, profile_corpus
from .storage import load_corpus_json, save_corpus_json, table_from_csv

#: Experiment name -> runner, for the ``experiment`` sub-command.
EXPERIMENT_RUNNERS = {
    "table1": run_table1,
    "table2": run_table2,
    "table3": run_table3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "figure6": run_figure6,
    "topk": run_topk,
    "init_column": run_init_column,
    "index_generation": run_index_generation,
    "scaling": run_scaling,
    "frequency_source": run_frequency_source,
    "sharding": run_sharding,
    "related_work": run_related_work,
    "short_values": run_short_values,
}


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared approximate-tier flags to a sub-command."""
    parser.add_argument(
        "--sketch-threshold", type=float, default=0.0,
        help="minimum estimated containment a table must reach to survive "
        "the MinHash-LSH prune (0 = exhaustive, byte-identical results)",
    )
    parser.add_argument(
        "--sketch-max-candidates", type=int, default=None,
        help="hard cap on tables surviving the sketch prune "
        "(best by estimated containment)",
    )


def _sketch_options(args: argparse.Namespace) -> SketchOptions:
    """Build :class:`SketchOptions` from the shared CLI flags."""
    return SketchOptions(
        threshold=args.sketch_threshold,
        max_candidates=args.sketch_max_candidates,
    )


def _add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability flags to a sub-command."""
    parser.add_argument(
        "--trace-out", type=Path, default=None,
        help="export the request span tree as JSON lines to this file "
        "(one object per span, including shard-worker spans)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit structured JSON logs on stderr, each record carrying "
        "the active trace_id",
    )
    parser.add_argument(
        "--slow-threshold", type=float, default=None,
        help="record requests slower than this many seconds in the "
        "slow-query log (servers expose it at GET /v1/slow)",
    )


def _telemetry_from_args(args: argparse.Namespace):
    """Build a :class:`~repro.telemetry.Telemetry` from the shared flags.

    Returns ``None`` (session default: metrics on, tracing off) when no
    flag engages telemetry, so the zero-overhead path stays the default.
    """
    from .telemetry import Telemetry, configure_json_logging

    if args.log_json:
        configure_json_logging()
    if args.trace_out is None and args.slow_threshold is None:
        return None
    if args.trace_out is not None:
        return Telemetry.with_trace_file(
            args.trace_out, slow_threshold_seconds=args.slow_threshold
        )
    from .telemetry import SlowQueryLog

    return Telemetry(slow_log=SlowQueryLog(threshold_seconds=args.slow_threshold))



def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="mate-repro",
        description="MATE: multi-attribute joinable table discovery (reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic workload")
    generate.add_argument("workload", choices=sorted(TABLE1_SPECS))
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--queries", type=int, default=3)
    generate.add_argument("--scale", type=float, default=0.5)
    generate.add_argument("--corpus-out", type=Path, required=True)
    generate.add_argument("--queries-out", type=Path, default=None)

    index = subparsers.add_parser(
        "index", help="build the extended inverted index into a live-index directory"
    )
    index.add_argument("corpus", type=Path, help="corpus JSON file")
    index.add_argument(
        "--live-dir", type=Path, required=True,
        help="live index directory to write (what ingest --compact writes)",
    )
    index.add_argument("--hash-function", default="xash")
    index.add_argument("--hash-size", type=int, default=128)

    discover = subparsers.add_parser("discover", help="find joinable tables")
    discover.add_argument("corpus", type=Path, help="corpus JSON file")
    discover.add_argument("query", type=Path, help="query table CSV file")
    discover.add_argument("--key", nargs="+", required=True, help="composite key columns")
    discover.add_argument("--live-dir", type=Path, default=None,
                          help="live index directory written by index or "
                          "ingest (default: build the index in memory)")
    # No static choices= here: the registry is open (EngineRegistry.register), so
    # the accepted set is resolved at dispatch time in _command_discover and
    # the help text simply reflects whatever is registered right now.
    discover.add_argument("--engine", default="mate",
                          help="registered discovery engine, one of: "
                          f"{', '.join(available_engines())}")
    discover.add_argument("--k", type=int, default=10)
    discover.add_argument("--hash-size", type=int, default=128)
    discover.add_argument("--deadline-seconds", type=float, default=None,
                          help="per-request wall-clock limit; an expired "
                          "deadline returns the partial top-k")
    discover.add_argument("--max-pl-fetches", type=int, default=None,
                          help="per-request posting-list fetch budget "
                          "(one probe value = one fetch)")
    discover.add_argument("--json", action="store_true",
                          help="print the result as the versioned JSON "
                          "response document instead of text")
    discover.add_argument("--planner-mode", choices=PLANNER_MODES,
                          default="selector",
                          help="seed-column strategy: the classic column "
                          "selector (default), the key column whose probe "
                          "values hold the fewest postings (cost), or the "
                          "sketch candidate tier (implied by "
                          "--sketch-threshold)")
    _add_sketch_arguments(discover)
    _add_telemetry_arguments(discover)
    discover.add_argument("--explain", action="store_true",
                          help="print the executed query plan (each key "
                          "column's probe values and postings, per-stage "
                          "timings)")

    experiment = subparsers.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=sorted(EXPERIMENT_RUNNERS))
    experiment.add_argument("--seed", type=int, default=7)
    experiment.add_argument("--queries", type=int, default=2)
    experiment.add_argument("--scale", type=float, default=0.25)
    experiment.add_argument("--k", type=int, default=10)
    experiment.add_argument(
        "--out", type=Path, default=None,
        help="also save the result (format from the suffix: .txt/.csv/.json)",
    )

    serve = subparsers.add_parser(
        "serve-batch", help="answer a batch of queries through a discovery session"
    )
    serve.add_argument("corpus", type=Path, help="corpus JSON file")
    serve.add_argument(
        "queries", type=Path,
        help="corpus JSON file of query tables (e.g. from generate --queries-out)",
    )
    serve.add_argument("--key", nargs="+", default=None,
                       help="composite key columns (shared by every query table); "
                       "omit to use each query table's first --key-size columns")
    serve.add_argument("--key-size", type=int, default=2,
                       help="key arity when --key is omitted (generated query "
                       "tables store their key columns first)")
    serve.add_argument("--workers", type=int, default=1,
                       help="batch scheduling worker threads")
    serve.add_argument("--k", type=int, default=10)
    serve.add_argument("--hash-size", type=int, default=128)
    serve.add_argument(
        "--live-dir", type=Path, default=None,
        help="live index directory written by index or ingest (default: "
        "build the index in memory)",
    )
    serve.add_argument("--json", action="store_true",
                       help="print the batch as the versioned JSON response "
                       "document instead of text")

    serve_http = subparsers.add_parser(
        "serve", help="serve discovery requests over HTTP"
    )
    serve_http.add_argument("corpus", type=Path, help="corpus JSON file")
    serve_http.add_argument("--host", default="127.0.0.1")
    serve_http.add_argument("--port", type=int, default=8080,
                            help="listen port (0 picks an ephemeral port; "
                            "the bound address is printed on startup)")
    serve_http.add_argument("--execution", choices=("thread", "process"),
                            default="thread",
                            help="how engine=sharded runs its shards: "
                            "in-process one after another, or one worker "
                            "process per shard over mmap'd segments")
    serve_http.add_argument("--shards", type=int, default=4,
                            help="number of shards (and worker processes "
                            "with --execution process)")
    serve_http.add_argument("--segments-dir", type=Path, default=None,
                            help="where the process pool writes its .seg "
                            "files (default: a private temp directory)")
    serve_http.add_argument("--workers", type=int, default=4,
                            help="session worker threads answering requests")
    serve_http.add_argument("--max-pending", type=int, default=32,
                            help="bounded in-flight queue: requests beyond "
                            "this answer 429 with Retry-After")
    serve_http.add_argument("--max-inflight-per-tenant", type=int, default=8,
                            help="per-tenant (X-Tenant header) in-flight cap")
    serve_http.add_argument("--max-fetches-per-request", type=int, default=None,
                            help="clamp every request's posting-list fetch "
                            "budget to this cap")
    serve_http.add_argument("--retry-after", type=float, default=1.0,
                            help="Retry-After hint (seconds) on 429 responses")
    serve_http.add_argument("--drain-timeout", type=float, default=30.0,
                            help="seconds to wait for in-flight requests on "
                            "SIGINT/SIGTERM before closing anyway")
    serve_http.add_argument("--default-engine", default="mate",
                            help="engine used when a request names none")
    serve_http.add_argument("--hash-size", type=int, default=128)
    _add_telemetry_arguments(serve_http)

    slowlog = subparsers.add_parser(
        "slowlog", help="print a running server's slow-query log"
    )
    slowlog.add_argument(
        "url",
        help="server base URL (e.g. http://127.0.0.1:8080); "
        "GET <url>/v1/slow is fetched",
    )
    slowlog.add_argument("--json", action="store_true",
                         help="print the raw /v1/slow document instead of text")

    ingest = subparsers.add_parser(
        "ingest", help="stream tables into a persisted live index"
    )
    ingest.add_argument(
        "source", type=Path,
        help="directory of CSV tables, or a corpus JSON file",
    )
    ingest.add_argument(
        "--live-dir", type=Path, required=True,
        help="live index directory (WAL + segments + manifest + corpus)",
    )
    ingest.add_argument("--hash-function", default="xash")
    ingest.add_argument("--hash-size", type=int, default=128)
    ingest.add_argument(
        "--buffer-rows", type=int, default=5000,
        help="seal the delta buffer into a segment at this many rows",
    )
    ingest.add_argument(
        "--max-segments", type=int, default=4,
        help="merge adjacent segments while the stack is deeper than this",
    )
    ingest.add_argument(
        "--no-fsync", action="store_true",
        help="skip per-append WAL fsync (faster, weaker durability)",
    )
    ingest.add_argument(
        "--compact", action="store_true",
        help="fully compact the index (single segment) after ingesting",
    )

    profile = subparsers.add_parser("profile", help="profile a data lake")
    profile.add_argument(
        "source", type=Path,
        help="directory of CSV tables, or a corpus JSON file",
    )

    similarity = subparsers.add_parser(
        "similarity", help="find similarity-joinable tables (fuzzy matching)"
    )
    similarity.add_argument("corpus", type=Path, help="corpus JSON file")
    similarity.add_argument("query", type=Path, help="query table CSV file")
    similarity.add_argument("--key", nargs="+", required=True,
                            help="composite key columns")
    similarity.add_argument("--k", type=int, default=10)
    similarity.add_argument("--hash-size", type=int, default=128)
    similarity.add_argument("--max-distance", type=int, default=1,
                            help="edit-distance budget per key value")
    similarity.add_argument("--min-bit-overlap", type=float, default=0.6,
                            help="super-key bit-overlap prefilter threshold")
    similarity.add_argument("--json", action="store_true",
                            help="print the ranking as JSON instead of text")
    _add_sketch_arguments(similarity)

    union = subparsers.add_parser(
        "union", help="find unionable tables (column-domain alignment)"
    )
    union.add_argument("corpus", type=Path, help="corpus JSON file")
    union.add_argument("query", type=Path, help="query table CSV file")
    union.add_argument("--columns", nargs="+", default=None,
                       help="query columns to align (default: all)")
    union.add_argument("--k", type=int, default=10)
    union.add_argument("--hash-size", type=int, default=128)
    union.add_argument("--json", action="store_true",
                       help="print the ranking as JSON instead of text")
    _add_sketch_arguments(union)

    suggest = subparsers.add_parser(
        "suggest-key", help="discover composite-key candidates for a CSV table"
    )
    suggest.add_argument("table", type=Path, help="CSV file")
    suggest.add_argument("--max-arity", type=int, default=3)
    suggest.add_argument("--limit", type=int, default=5,
                         help="number of candidates to print")

    return parser


def _command_generate(args: argparse.Namespace) -> int:
    workload = build_workload(
        args.workload, seed=args.seed, num_queries=args.queries, corpus_scale=args.scale
    )
    save_corpus_json(workload.corpus, args.corpus_out)
    print(f"wrote corpus with {len(workload.corpus)} tables to {args.corpus_out}")
    if args.queries_out is not None:
        query_corpus = TableCorpus(name=f"{workload.name}_queries")
        for query in workload.queries:
            query_corpus.add_table(query.table)
        save_corpus_json(query_corpus, args.queries_out)
        print(f"wrote {len(workload.queries)} query tables to {args.queries_out}")
    return 0


def _command_index(args: argparse.Namespace) -> int:
    live_dir = Path(args.live_dir)
    if live_dir.is_dir() and any(live_dir.iterdir()):
        what = (
            f"already holds a live index ({MANIFEST_FILE})"
            if (live_dir / MANIFEST_FILE).exists()
            else "is not empty"
        )
        raise StorageError(
            f"{live_dir} {what}; repro index writes a new live index into a "
            "fresh or empty directory (repro ingest adds tables to an "
            "existing one)"
        )
    # A one-shot build has no reader to keep in serving shape, so the
    # buffer is sealed once at the end (intermediate segments would only be
    # merged again), and it is rerun from its corpus if it crashes, so the
    # appends skip their per-record fsync: the finished directory is synced
    # once instead.
    status = _ingest_into_live_dir(
        load_corpus_json(args.corpus),
        live_dir,
        hash_function_name=args.hash_function,
        hash_size=args.hash_size,
        policy=CompactionPolicy(max_buffer_rows=sys.maxsize),
        fsync=False,
        compact=True,
    )
    sync_directory(live_dir)
    return status


def _print_plan_explain(result) -> None:
    """Render the executed query plan of ``result`` as indented text."""
    explanation = result.plan_explain()
    if explanation is None:
        print("plan: (engine ran outside the planner pipeline)")
        return
    print(f"plan: mode={explanation['mode']}, "
          f"seed column {explanation['seed_column']!r}")
    for candidate in [explanation["seed"], *explanation["alternatives"]]:
        marker = "*" if candidate["column"] == explanation["seed_column"] else " "
        if candidate["postings"] is None:
            counted = "not counted (the column selector's choice)"
        else:
            counted = (f"{candidate['probe_count']} probe values, "
                       f"{candidate['postings']} postings")
        print(f"  {marker} column {candidate['column']!r}: {counted}")
    print(f"  fetched {explanation['observed_postings']} PL items")
    print(f"  verified {explanation['verified_pairs']} pairs in one pass "
          f"({explanation['discarded_pairs']} discarded by table filters "
          f"or the deadline)")
    counters = result.counters
    print(f"  {counters.candidate_tables} candidate tables: "
          f"{counters.tables_evaluated} evaluated, "
          f"{counters.tables_pruned_by_rule1} pruned by rule 1, "
          f"{counters.tables_pruned_by_rule2} abandoned by rule 2")
    print("stages:")
    for name in explanation["stages"]:
        stats = result.counters.stages.get(name)
        if stats is None:
            continue
        print(f"  {name}: {stats.calls} calls, {stats.seconds * 1000:.2f} ms, "
              f"{stats.items_in} in / {stats.items_out} out")


def _open_live_dir(args: argparse.Namespace) -> tuple[LiveSnapshot, MateConfig]:
    """A read-only snapshot of ``--live-dir`` and the engine configuration
    for it.

    The stored index is authoritative: the engine's hash size must match
    the persisted super keys, so a differing ``--hash-size`` is overridden
    with a notice (on stderr under ``--json``, which keeps stdout JSON).  A
    path holding no live index is refused before anything is created, and
    the directory is only read, so a writer may be running on it.
    """
    snapshot = read_snapshot(args.live_dir)
    if snapshot.hash_size != args.hash_size:
        print(
            f"using stored index layout from {args.live_dir}: "
            f"{snapshot.hash_size}-bit {snapshot.hash_function_name} "
            "(ignoring --hash-size)",
            file=sys.stderr if args.json else sys.stdout,
        )
    return snapshot, MateConfig(hash_size=snapshot.hash_size, k=args.k)


def _index_for(args: argparse.Namespace, corpus: TableCorpus):
    """The index ``discover`` / ``serve-batch`` serve, and its configuration:
    a snapshot of ``--live-dir``, else a bulk build at ``--hash-size``."""
    if args.live_dir is not None:
        return _open_live_dir(args)
    config = MateConfig(hash_size=args.hash_size, k=args.k)
    return build_index(corpus, config=config), config


def _command_discover(args: argparse.Namespace) -> int:
    engines = available_engines()
    if args.engine not in engines:
        print(
            f"unknown engine {args.engine!r}; registered engines: "
            f"{', '.join(engines)}",
            file=sys.stderr,
        )
        return 2
    corpus = load_corpus_json(args.corpus)
    index, config = _index_for(args, corpus)

    query_table = table_from_csv(10_000_000, args.query)
    query = QueryTable(table=query_table, key_columns=[c.lower() for c in args.key])
    sketch = _sketch_options(args)
    planner_mode = args.planner_mode
    if sketch.enabled and planner_mode == "selector":
        # Non-default sketch knobs imply the sketch pipeline; an explicit
        # cost mode conflicts and is rejected by request validation.
        planner_mode = "sketch"
    request = DiscoveryRequest(
        query=query,
        k=args.k,
        engine=args.engine,
        deadline_seconds=args.deadline_seconds,
        max_pl_fetches=args.max_pl_fetches,
        planner=PlannerOptions(mode=planner_mode),
        sketch=sketch,
    )
    telemetry = _telemetry_from_args(args)
    with DiscoverySession(
        corpus, index, config=config, telemetry=telemetry
    ) as session:
        result = session.discover(request)
    if telemetry is not None:
        telemetry.close()
        if args.trace_out is not None:
            print(f"trace written to {args.trace_out}", file=sys.stderr)

    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(f"top-{args.k} joinable tables ({args.engine}, key={query.key_columns}):")
    for entry in result.tables:
        print(f"  table {entry.table_id:>6}  joinability={entry.joinability:>5}  "
              f"{entry.table_name}")
    counters = result.counters
    print(f"rows checked: {counters.rows_checked}, precision: {counters.precision:.2f}, "
          f"runtime: {counters.runtime_seconds:.3f}s")
    if "sketch_candidates" in counters.extra:
        print(f"sketch: {int(counters.extra['sketch_candidates'])} candidate "
              "tables after the LSH prune (estimated recall "
              f"{counters.extra['sketch_estimated_recall']:.4f})")
    if not result.complete:
        reason = "deadline" if counters.deadline_expired else "fetch budget"
        print(f"note: partial result ({reason} limit reached)")
    if args.explain:
        _print_plan_explain(result)
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    settings = ExperimentSettings(
        seed=args.seed, num_queries=args.queries, corpus_scale=args.scale, k=args.k
    )
    result = EXPERIMENT_RUNNERS[args.name](settings)
    print(result.to_text())
    if args.out is not None:
        from .experiments import save_result

        save_result(result, args.out)
        print(f"saved to {args.out}")
    return 0


def _command_serve_batch(args: argparse.Namespace) -> int:
    corpus = load_corpus_json(args.corpus)
    index, config = _index_for(args, corpus)
    service_config = ServiceConfig(max_workers=args.workers)

    shared_key = [c.lower() for c in args.key] if args.key else None
    query_corpus = load_corpus_json(args.queries)
    requests = [
        DiscoveryRequest(
            query=QueryTable(
                table=table,
                key_columns=shared_key or table.columns[: args.key_size],
            ),
            k=args.k,
        )
        for table in query_corpus
    ]

    with DiscoverySession(
        corpus, index, config=config, service_config=service_config
    ) as session:
        batch = session.discover_batch(requests)

    if args.json:
        print(json.dumps(batch.to_dict(), indent=2))
        return 0
    print(f"served {len(batch)} queries:")
    for request, result in zip(requests, batch):
        ranked = ", ".join(
            f"{entry.table_id}:{entry.joinability}" for entry in result.tables
        )
        print(f"  {request.query.table.name} (key={request.query.key_columns}): "
              f"top-{args.k} [{ranked}]")
    stats = batch.stats
    print(
        f"batch: {stats.batch_seconds:.3f}s, "
        f"{stats.queries_per_second:.1f} queries/s"
    )
    return 0


def _command_ingest(args: argparse.Namespace) -> int:
    source = Path(args.source)
    if source.is_dir():
        incoming = DataLake.from_directory(source).corpus
    else:
        incoming = load_corpus_json(source)
    return _ingest_into_live_dir(
        incoming,
        args.live_dir,
        hash_function_name=args.hash_function,
        hash_size=args.hash_size,
        policy=CompactionPolicy(
            max_buffer_rows=args.buffer_rows, max_segments=args.max_segments
        ),
        fsync=not args.no_fsync,
        compact=args.compact,
    )


def _ingest_into_live_dir(
    incoming: TableCorpus,
    live_dir: Path,
    *,
    hash_function_name: str,
    hash_size: int,
    policy: CompactionPolicy = CompactionPolicy(),
    fsync: bool = True,
    compact: bool = False,
) -> int:
    """Stream ``incoming`` into the live-index directory ``live_dir``.

    Resumes a directory that exists (crash recovery replays the WAL first;
    already-live table ids are skipped), seals or fully compacts at the
    end, and persists the merged corpus as ``corpus.json`` beside it.
    """
    config = MateConfig(hash_size=hash_size)
    live = LiveIndex.open(
        live_dir,
        config=config,
        hash_function_name=hash_function_name,
        fsync=fsync,
    )
    corpus_path = Path(live_dir) / "corpus.json"
    corpus = (
        load_corpus_json(corpus_path)
        if corpus_path.exists()
        else TableCorpus(name=incoming.name)
    )
    # Tables acknowledged before a crash live in the WAL, not yet in the
    # persisted corpus — put them back.
    for table in live.recovered_tables():
        if table.table_id not in corpus:
            corpus.add_table(table)

    compactor = Compactor(live, policy)
    ingested = rows = skipped = 0
    started = time.perf_counter()
    with DiscoverySession(corpus, live, config=config) as session:
        for table in incoming:
            if live.has_table(table.table_id):
                # Already live (typically sealed before a crash that beat the
                # corpus save): repair the persisted corpus instead of
                # leaving an index entry without its rows.
                if table.table_id not in corpus:
                    corpus.add_table(table)
                skipped += 1
                continue
            rows += session.ingest(table)
            ingested += 1
            compactor.run_once()
        if compact:
            live.compact()
        else:
            live.seal()
        save_corpus_json(session.corpus, corpus_path)
    elapsed = time.perf_counter() - started
    live.close()

    rate = rows / elapsed if elapsed > 0 else 0.0
    print(
        f"ingested {ingested} tables ({rows} rows, {skipped} already live) "
        f"in {elapsed:.3f}s ({rate:.0f} rows/s)"
    )
    print(
        f"live index ({hash_function_name}/{hash_size}): "
        f"{live.num_posting_items()} postings, "
        f"{live.num_segments} segments (generation {live.generation}), "
        f"{live.buffer_rows} buffered rows, "
        f"{compactor.seals} seals / {compactor.merges} merges"
    )
    print(f"state persisted under {live_dir}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from .serve import AdmissionController, DiscoveryHTTPServer, TenantQuota
    from .serve.http import run_server
    from .serve.pool import ServeConfig

    corpus = load_corpus_json(args.corpus)
    config = MateConfig(hash_size=args.hash_size)
    service_config = ServiceConfig(
        num_shards=args.shards,
        max_workers=args.workers,
    )
    serve_config = None
    if args.execution == "process":
        serve_config = ServeConfig(
            num_shards=args.shards,
            segments_dir=args.segments_dir,
        )
    telemetry = _telemetry_from_args(args)
    session = DiscoverySession(
        corpus,
        config=config,
        service_config=service_config,
        execution=args.execution,
        serve_config=serve_config,
        telemetry=telemetry,
    )
    admission = AdmissionController(
        max_pending=args.max_pending,
        tenant_quota=TenantQuota(
            max_inflight=args.max_inflight_per_tenant,
            max_pl_fetches_per_request=args.max_fetches_per_request,
        ),
        retry_after_seconds=args.retry_after,
    )
    server = DiscoveryHTTPServer(
        session,
        admission=admission,
        host=args.host,
        port=args.port,
        default_engine=args.default_engine,
        drain_timeout=args.drain_timeout,
    )
    print(
        f"loaded corpus with {len(corpus)} tables; execution={args.execution}, "
        f"{args.shards} shards",
        flush=True,
    )
    try:
        return run_server(server)
    finally:
        session.close()
        if telemetry is not None:
            telemetry.close()


def _command_profile(args: argparse.Namespace) -> int:
    source = Path(args.source)
    if source.is_dir():
        corpus = DataLake.from_directory(source).corpus
    else:
        corpus = load_corpus_json(source)
    profile = profile_corpus(corpus)
    print(f"profile of {corpus.name!r}:")
    for key, value in profile.as_dict().items():
        print(f"  {key}: {value}")
    config = profile.recommended_config()
    print("recommended configuration:")
    print(f"  hash_size: {config.hash_size}")
    print(f"  alpha (1-bits per hash): {config.alpha}")
    print(f"  beta (bits per character segment): {config.beta}")
    print(f"  length segment bits: {config.length_segment_bits}")
    return 0


def _sketch_store_for(args: argparse.Namespace, corpus):
    """Build the corpus sketch store when the CLI flags enable the tier."""
    options = _sketch_options(args)
    if not options.enabled:
        return None, options
    return build_sketch_index(corpus), options


def _command_similarity(args: argparse.Namespace) -> int:
    from .metrics import DiscoveryCounters

    corpus = load_corpus_json(args.corpus)
    config = MateConfig(hash_size=args.hash_size, k=args.k)
    index = build_index(corpus, config=config)
    sketch_index, sketch_options = _sketch_store_for(args, corpus)
    discovery = SimilarityJoinDiscovery(
        corpus,
        index,
        config=config,
        max_distance=args.max_distance,
        min_bit_overlap=args.min_bit_overlap,
        sketch_index=sketch_index,
        sketch_options=sketch_options,
    )
    query_table = table_from_csv(10_000_000, args.query)
    query = QueryTable(table=query_table, key_columns=[c.lower() for c in args.key])
    counters = DiscoveryCounters()
    results = discovery.discover(query, k=args.k, counters=counters)

    if args.json:
        print(json.dumps({
            "tables": [result.as_dict() for result in results],
            "sketch_candidates": counters.extra.get("sketch_candidates"),
            "sketch_estimated_recall": counters.extra.get(
                "sketch_estimated_recall"
            ),
        }, indent=2))
        return 0
    print(f"top-{args.k} similarity-joinable tables "
          f"(key={query.key_columns}, max_distance={args.max_distance}):")
    for result in results:
        name = corpus.get_table(result.table_id).name
        print(f"  table {result.table_id:>6}  "
              f"similarity={result.similarity_joinability:>5}  "
              f"exact={result.exact_joinability:>5}  {name}")
    if "sketch_candidates" in counters.extra:
        print(f"sketch: {int(counters.extra['sketch_candidates'])} candidate "
              "tables after the LSH prune (estimated recall "
              f"{counters.extra['sketch_estimated_recall']:.4f})")
    return 0


def _command_union(args: argparse.Namespace) -> int:
    corpus = load_corpus_json(args.corpus)
    config = MateConfig(hash_size=args.hash_size, k=args.k)
    index = build_index(corpus, config=config)
    sketch_index, sketch_options = _sketch_store_for(args, corpus)
    search = UnionSearch(
        corpus, index, sketch_index=sketch_index, sketch_options=sketch_options
    )
    query_table = table_from_csv(10_000_000, args.query)
    columns = [c.lower() for c in args.columns] if args.columns else None
    candidates = search.top_k_unionable(query_table, k=args.k, columns=columns)

    if args.json:
        print(json.dumps({
            "tables": [
                {
                    "table_id": candidate.table_id,
                    "unionability": candidate.unionability,
                    "alignment": list(candidate.alignment),
                }
                for candidate in candidates
            ],
        }, indent=2))
        return 0
    aligned_columns = columns or [c.lower() for c in query_table.columns]
    print(f"top-{args.k} unionable tables (columns={aligned_columns}):")
    for candidate in candidates:
        table = corpus.get_table(candidate.table_id)
        pairs = ", ".join(
            f"{aligned_columns[q]}->{table.columns[c]}"
            for q, c in candidate.alignment
            if c is not None
        )
        print(f"  table {candidate.table_id:>6}  "
              f"unionability={candidate.unionability:.3f}  "
              f"{table.name}  [{pairs}]")
    return 0


def _command_slowlog(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    url = args.url.rstrip("/") + "/v1/slow"
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            document = json.loads(response.read().decode("utf-8"))
    except (urllib.error.URLError, OSError, ValueError) as exc:
        print(f"cannot fetch {url}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(document, indent=2))
        return 0
    entries = document.get("slow_queries", [])
    print(
        f"slow-query log: {document.get('recorded_total', 0)} recorded over "
        f"{document.get('threshold_seconds')}s, "
        f"{len(entries)}/{document.get('capacity')} retained (newest first)"
    )
    for entry in entries:
        trace = entry.get("trace_id") or "-"
        print(
            f"  [{trace}] {entry.get('request')!r} via {entry.get('engine')}: "
            f"{entry.get('seconds', 0.0):.3f}s"
        )
        for name, stats in (entry.get("stages") or {}).items():
            print(
                f"      {name}: {stats.get('calls', 0)} calls, "
                f"{stats.get('seconds', 0.0) * 1000:.2f} ms, "
                f"{stats.get('items_in', 0)} in / {stats.get('items_out', 0)} out"
            )
        budget = entry.get("budget") or {}
        if budget:
            print(
                "      budget: "
                f"max_pl_fetches={budget.get('max_pl_fetches')}, "
                f"remaining={budget.get('remaining_pl_fetches')}, "
                f"exhausted={budget.get('exhausted')}, "
                f"expired={budget.get('expired')}"
            )
    return 0


def _command_suggest_key(args: argparse.Namespace) -> int:
    table = table_from_csv(0, args.table)
    candidates = discover_key_candidates(table, max_arity=args.max_arity)
    if not candidates:
        print(f"no composite-key candidate found for {args.table}")
        return 1
    print(f"composite-key candidates for {args.table} (best first):")
    for candidate in candidates[: args.limit]:
        marker = "UCC" if candidate.is_unique else f"{candidate.uniqueness:.2f}"
        print(f"  [{marker:>4}] {', '.join(candidate.columns)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "index": _command_index,
        "discover": _command_discover,
        "experiment": _command_experiment,
        "serve": _command_serve,
        "serve-batch": _command_serve_batch,
        "ingest": _command_ingest,
        "profile": _command_profile,
        "similarity": _command_similarity,
        "union": _command_union,
        "suggest-key": _command_suggest_key,
        "slowlog": _command_slowlog,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
