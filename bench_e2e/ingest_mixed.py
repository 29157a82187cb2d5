"""The ``ingest_mixed`` workload: streaming writes beside live reads.

One thread streams the whole generated corpus (in a fixed shuffled order) through
``DiscoverySession.ingest`` into a persisted ``LiveIndex`` (``fsync=True``)
and calls ``Compactor.run_once()`` after every table; at fixed positions of
the stream it removes the oldest unplanted table and runs one
``engine="live"`` discover.  The interleave depends only on the stream
position, so every count repeats exactly for a fixed seed.

The stream is a fixed amount of work; ``--seconds`` does not cut it short
(counts could not repeat if it did).  The end-to-end run streams it
``streams`` times into fresh directories (~15 s together on the reference
box); operation ``i`` is the same call on the same state in every stream,
so it counts with the fastest of its repeats, each stream first brought to
reference speed (:class:`~bench_e2e.measure.MachineSpeed`).  Every
mid-stream answer is checked against the exact oracle over the tables
visible at that moment; at the end every query must match the oracle over
the surviving tables, and a reopened directory must reproduce those
answers.  ``setup_s`` is what a restart pays: opening the final directory,
building a session on it and answering the first query.
"""

from __future__ import annotations

import os
import random
import time
from collections import deque
from contextlib import nullcontext
from pathlib import Path

from repro import DiscoveryRequest, DiscoverySession, MateConfig
from repro.datamodel import TableCorpus
from repro.index import build_index
from repro.ingest import CompactionPolicy, Compactor, LiveIndex

from . import layers
from .config import K, SHAPE_SEED, WorkloadConfig
from .discover import discover_targets, span_metrics
from .inputs import (
    ExactOracle,
    check_result,
    generate_inputs,
    non_empty_cells,
    result_rows,
    self_check,
    topk_digest,
)
from .measure import (
    REFERENCE_KERNEL_S,
    MachineSpeed,
    RunResult,
    cpu_seconds,
    directory_bytes,
    median,
    peak_rss_mb,
    per_operation,
    percentile,
    ratio,
)
from .spans import SpanRecorder


def ingest_targets(session: DiscoverySession) -> list[tuple]:
    """Wrappers of the traced stream: the write path plus the read path."""
    from repro.ingest import live as live_module
    from repro.ingest.wal import WriteAheadLog
    from repro.sketch import SketchIndex

    root = {"request_root": True}
    return [
        (DiscoverySession, "ingest", "api.session.ingest", root),
        (DiscoverySession, "remove", "api.session.remove", root),
        (LiveIndex, "add_table", "ingest.add_table", {}),
        (WriteAheadLog, "append_add_table", "ingest.wal_append", {}),
        (SketchIndex, "add_table", "sketch.add_table", {}),
        (Compactor, "run_once", "ingest.compactor", root),
        (LiveIndex, "seal", "ingest.seal", {}),
        (LiveIndex, "merge", "ingest.merge", {}),
        (SketchIndex, "save", "sketch.save", {}),
        (live_module, "write_segment", "storage.segment_write", {}),
    ] + discover_targets(session)


class IngestRun:
    def __init__(
        self, config: WorkloadConfig, options, result: RunResult, inputs, tag: str
    ):
        self.config = config
        self.options = options
        self.result = result
        self.inputs = inputs
        # The arrival order is part of the fixed shape: which planted tables
        # a query already sees when it runs decides its work, and a seeded
        # order moved discover latency by +-15 % between seeds.
        self.stream = list(self.inputs.corpus)
        random.Random(f"{SHAPE_SEED}:{config.name}:stream").shuffle(self.stream)
        self.requests = [
            DiscoveryRequest(query=query, k=K, engine="live")
            for query in self.inputs.queries
        ]
        self.directory = Path(options.work_dir) / f"live-{tag}"
        self.live = LiveIndex.open(self.directory, config=MateConfig(), fsync=True)
        self.session = DiscoverySession(
            TableCorpus(name=f"{config.name}_live"), self.live, config=MateConfig()
        )
        self.compactor = Compactor(
            self.live,
            CompactionPolicy(
                max_buffer_rows=config.max_buffer_rows,
                max_segments=config.max_segments,
            ),
        )
        self.oracle = ExactOracle([])
        self.surviving: dict[int, object] = {}
        self.ack_seconds: list[float] = []
        self.discover_seconds: list[float] = []
        self.segments_at_read: list[int] = []
        self.remove_seconds = 0.0
        self.wal_bytes = 0
        self.reference: dict[int, list] = {}
        self._closed = False

    def check(self, query_index: int, answer) -> list:
        rows = result_rows(answer.tables)
        self.result.attempted += 1
        why = check_result(
            self.inputs, query_index, rows, answer.complete, K, oracle=self.oracle
        )
        if why is not None:
            self.result.fail(f"query {query_index}: {why}")
        return rows

    def stream_all(
        self,
        track_wal: bool = False,
        keep: list | None = None,
        speed: MachineSpeed | None = None,
    ) -> None:
        """Run the interleaved stream (``keep`` collects the live answers;
        with ``speed`` kernel slices run after every discover)."""
        config = self.config
        session, compactor, oracle = self.session, self.compactor, self.oracle
        base_ids = set(self.inputs.base_table_ids)
        unplanted: deque[int] = deque()
        wal_path = self.directory / "wal.jsonl"
        wal_size = 0
        next_query = 0
        for position, table in enumerate(self.stream, start=1):
            call_started = time.perf_counter()
            session.ingest(table)
            compactor.run_once()
            self.ack_seconds.append(time.perf_counter() - call_started)
            self.result.attempted += 1
            oracle.add_table(table)
            self.surviving[table.table_id] = table
            if table.table_id in base_ids:
                unplanted.append(table.table_id)
            if track_wal:
                size = wal_path.stat().st_size
                self.wal_bytes += max(0, size - wal_size)
                wal_size = size
            if position % config.remove_every == 0 and unplanted:
                victim = unplanted.popleft()
                call_started = time.perf_counter()
                session.remove(victim)
                self.remove_seconds += time.perf_counter() - call_started
                oracle.remove_table(victim)
                del self.surviving[victim]
                self.result.attempted += 1
                if track_wal:
                    wal_size = wal_path.stat().st_size
            if position % config.discover_every == 0:
                query_index = next_query % len(self.requests)
                next_query += 1
                call_started = time.perf_counter()
                answer = session.discover(self.requests[query_index])
                self.discover_seconds.append(time.perf_counter() - call_started)
                self.segments_at_read.append(self.live.num_segments + 1)
                self.check(query_index, answer)
                if keep is not None:
                    keep.append(answer)
                if speed is not None:
                    speed.tick()

    def reopen(self) -> float:
        """Restart on the final directory; returns the seconds until the
        restarted session answered its first query (a ``setup_s`` sample).

        When :meth:`finish` fixed the reference answers, the restarted
        session must reproduce every one of them.
        """
        corpus = TableCorpus(name="reopened", tables=self.surviving.values())
        started = time.perf_counter()
        live = LiveIndex.open(self.directory, config=MateConfig(), fsync=True)
        session = DiscoverySession(corpus, live, config=MateConfig())
        try:
            session.discover(self.requests[0])
            seconds = time.perf_counter() - started
            for query_index, rows in self.reference.items():
                self.result.attempted += 1
                answer = session.discover(self.requests[query_index])
                if result_rows(answer.tables) != rows:
                    self.result.fail(
                        f"query {query_index}: reopened directory answers "
                        "differently"
                    )
        finally:
            session.close()
            live.close()
        return seconds

    def finish(self) -> None:
        """Every query against the final state, oracle-checked."""
        for query_index, request in enumerate(self.requests):
            self.reference[query_index] = self.check(
                query_index, self.session.discover(request)
            )

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.session.close()
            self.live.close()


def run(config: WorkloadConfig, options, recorder: SpanRecorder) -> RunResult:
    result = RunResult(workload=config.name, seed=options.seed, traced=options.traced)
    inputs = generate_inputs(config.inputs, options.seed, config.name)
    if options.traced:
        state = _run_traced(config, options, result, inputs, recorder)
    else:
        state = _run_end_to_end(config, options, result, inputs)
    if options.self_check:
        self_check(result, inputs, state.reference, 0, K, state.oracle)
    result.topk_digest = topk_digest(state.reference)
    return result


def _run_end_to_end(config: WorkloadConfig, options, result, inputs) -> IngestRun:
    """``streams`` identical streams, each followed by a restart.

    Operation ``i`` of the stream is the same call on the same state in
    every stream, so each operation counts with the fastest of its repeats
    (single calls here are hit by collector pauses and write-back: across
    ten seeds the median latency spread by 15 % with the mean of two
    streams and by 4 % with the faster one), every stream first brought to
    reference speed by the kernel slices taken inside it.  Every mid-stream
    answer of every stream is oracle-checked; the final state and what a
    restart reproduces are checked on the first stream (the later ones are
    the same operations on the same inputs).  Returns the first stream's
    state: reference answers and oracle.
    """
    first: IngestRun | None = None
    rss_mb = 0.0
    speed = MachineSpeed()
    setup_seconds: list[float] = []
    ack_repeats: list[list[float]] = []
    discover_repeats: list[list[float]] = []
    for repeat in range(config.streams):
        state = IngestRun(config, options, result, inputs, f"stream-{repeat}")
        speed.begin()
        try:
            with options.profiled() if repeat == 0 else nullcontext():
                state.stream_all(speed=speed)
            slowdown = speed.slowdown()
            if first is None:
                state.finish()
        finally:
            state.close()
        ack_repeats.append([s / slowdown for s in state.ack_seconds])
        discover_repeats.append([s / slowdown for s in state.discover_seconds])
        if first is None:
            first = state
            # After one whole stream and before any restart: later streams
            # and reopened indexes in the same process are the benchmark's
            # doing, not memory a user of the program would see.
            rss_mb = peak_rss_mb([os.getpid()])
        # One restart per stream; the last directory is reopened until
        # there are ``repeats`` set-up samples.
        restarts = 1
        if repeat == config.streams - 1:
            restarts = max(1, config.repeats - len(setup_seconds))
        for _ in range(restarts):
            speed.begin()
            speed.sample(speed.AROUND)
            reopen_seconds = state.reopen()
            speed.sample(speed.AROUND)
            setup_seconds.append(reopen_seconds / speed.slowdown())
    acks = per_operation(ack_repeats, min)
    discovers = per_operation(discover_repeats, min)
    surviving = list(first.surviving.values())
    result.metrics.update(
        {
            "setup_s": median(setup_seconds),
            "index_tables_per_s": len(acks) / sum(acks),
            "index_bytes_per_cell": ratio(
                directory_bytes(first.directory), non_empty_cells(surviving)
            ),
            "discover_qps": len(discovers) / sum(discovers),
            "discover_p50_ms": 1e3 * median(discovers),
            "discover_p95_ms": 1e3 * percentile(discovers, 0.95),
            "peak_rss_mb": rss_mb,
        }
    )
    result.notes.update(
        {
            "streams": config.streams,
            "tables_streamed": len(acks),
            "samples": len(discovers),
            "surviving_tables": len(surviving),
            "machine_slowdown": round(
                sum(speed.slices) / len(speed.slices) / REFERENCE_KERNEL_S, 4
            ),
        }
    )
    return first


def _run_traced(
    config: WorkloadConfig, options, result, inputs, recorder: SpanRecorder
) -> IngestRun:
    """Per-layer run: the whole stream under wrappers, then direct calls."""
    metrics = result.metrics
    metrics["bench.generate_s"] = inputs.generate_s

    # The same stream once without wrappers: trace.overhead_ratio's base.
    plain = IngestRun(config, options, result, inputs, "plain")
    try:
        plain.stream_all()
    finally:
        plain.close()
    plain_busy = sum(plain.ack_seconds) + sum(plain.discover_seconds)
    del plain

    state = IngestRun(config, options, result, inputs, "traced")
    try:
        _traced_stream(state, recorder, plain_busy)
    finally:
        state.close()
    return state


def _traced_stream(state: IngestRun, recorder: SpanRecorder, plain_busy: float) -> None:
    from repro.ingest import live as live_module

    options, result = state.options, state.result
    metrics = result.metrics

    # Every .seg the live index writes, sized as it lands (seals + merges).
    segment_sizes: list[int] = []
    original_write = live_module.write_segment

    def sized_write_segment(index, path, fsync=True):
        written = original_write(index, path, fsync=fsync)
        segment_sizes.append(Path(path).stat().st_size)
        return written

    live_module.write_segment = sized_write_segment
    live_answers: list = []
    cpu_before = cpu_seconds([os.getpid()])
    try:
        with recorder.installed(ingest_targets(state.session)):
            state.stream_all(track_wal=True, keep=live_answers)
    finally:
        live_module.write_segment = original_write
    cpu_used = cpu_seconds([os.getpid()]) - cpu_before
    state.finish()

    # Bulk rebuild over the surviving tables in ingest order: the live
    # answers must equal the static engine's on the same tables.
    sequences = state.live.table_sequences()
    ordered = sorted(state.surviving.values(), key=lambda t: sequences[t.table_id])
    corpus = TableCorpus(name="surviving", tables=ordered)
    started = time.perf_counter()
    index = build_index(corpus, config=MateConfig())
    build_seconds = time.perf_counter() - started
    answers = []
    with DiscoverySession(corpus, index) as bulk:
        for query_index, request in enumerate(state.requests):
            answer = bulk.discover(DiscoveryRequest(query=request.query, k=K))
            answers.append(answer)
            result.attempted += 1
            if result_rows(answer.tables) != state.reference[query_index]:
                result.fail(f"query {query_index}: live differs from bulk rebuild")

    state.close()
    reopen_seconds = state.reopen()
    tables = len(state.ack_seconds)
    ack_total = sum(state.ack_seconds)
    seconds = recorder.seconds
    corpus_bytes = layers.corpus_json_bytes(state.inputs.corpus)
    # Read path of the live discovers: the same folding as a discover pass.
    span_metrics(metrics, recorder, live_answers, 1)
    busy = ack_total + sum(state.discover_seconds) + state.remove_seconds
    metrics.update(
        {
            "ingest.tables_per_s": ratio(tables, ack_total),
            "ingest.ack_p95_ms": 1e3 * percentile(state.ack_seconds, 0.95),
            "ingest.stall_max_ms": 1e3 * max(state.ack_seconds),
            # Share of the time spent inside the program (ingest + run_once
            # against discovers and removals); the oracle checks between
            # calls are the benchmark's own time.
            "ingest.call_share": ratio(ack_total, busy),
            "ingest.add_table_s": seconds("ingest.add_table"),
            "ingest.wal_append_s": seconds("ingest.wal_append"),
            "ingest.wal_bytes": float(state.wal_bytes),
            "ingest.compactor_s": seconds("ingest.compactor"),
            "ingest.seal_s": seconds("ingest.seal"),
            "ingest.seal_count": float(recorder.calls("ingest.seal")),
            "ingest.merge_s": seconds("ingest.merge"),
            "ingest.merge_count": float(recorder.calls("ingest.merge")),
            "ingest.bytes_written_per_user_byte": ratio(
                sum(segment_sizes) + state.wal_bytes, corpus_bytes
            ),
            "ingest.segments_final": float(state.live.num_segments),
            "ingest.tombstones_final": float(len(state.live.tombstones)),
            "ingest.read_segments_mean": ratio(
                sum(state.segments_at_read), len(state.segments_at_read)
            ),
            "ingest.reopen_s": reopen_seconds,
            "sketch.add_table_s": seconds("sketch.add_table"),
            "sketch.save_s": seconds("sketch.save"),
            "storage.segment_write_s": seconds("storage.segment_write"),
            "storage.segment_bytes": float(sum(segment_sizes)),
            "storage.corpus_json_bytes": float(corpus_bytes),
            "index.fetch_batch_s": seconds("index.fetch_batch"),
            "index.fetch_calls": float(recorder.calls("index.fetch_batch")),
            "index.build_s": build_seconds,
            "index.build_rows_per_s": ratio(
                sum(table.num_rows for table in ordered), build_seconds
            ),
            "index.posting_items": float(index.num_posting_items()),
            "index.distinct_values": float(len(index)),
            "proc.cpu_s_per_request": ratio(
                cpu_used, tables + len(state.discover_seconds)
            ),
            "bench.samples": float(len(state.discover_seconds)),
            # Timed calls only: the oracle checks between them are the
            # benchmark's own work in both streams.
            "trace.overhead_ratio": ratio(
                ack_total + sum(state.discover_seconds), plain_busy
            ),
        }
    )
    metrics.update(layers.envelope_metrics(answers))
    metrics.update(layers.hashing_metrics(state.inputs.corpus))
    result.notes.update({"tables_streamed": tables})
