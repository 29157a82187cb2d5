"""Tests for the telemetry subsystem (repro.telemetry).

Four layers, tested bottom-up:

* tracing primitives — span nesting and parenting through the contextvar,
  the disabled-tracer fast path, synthetic (pre-measured) spans, and the
  JSONL exporter round trip;
* the metrics registry — counters/gauges/histograms, scrape-time
  callbacks, and the Prometheus text rendering;
* trace-correlated JSON logs and the slow-query ring buffer;
* the integrated story — session metrics, the batch-failure log
  regression, pool counters flowing into the registry, and the
  acceptance test: a process-execution discovery whose JSONL trace forms
  a single tree reconstructed across process boundaries.
"""

from __future__ import annotations

import json
import logging
import math
import os

import pytest

from repro import DiscoveryRequest, DiscoverySession, Telemetry
from repro.config import MateConfig, ServiceConfig
from repro.datagen import build_workload
from repro.exceptions import EngineNotFoundError
from repro.serve import ProcessShardPool, ServeConfig
from repro.serve.http import DiscoveryHTTPServer
from repro.telemetry import (
    InMemoryExporter,
    JsonLinesExporter,
    JsonLogFormatter,
    MetricsRegistry,
    SlowQueryEntry,
    SlowQueryLog,
    TraceContext,
    Tracer,
    current_span,
    current_trace_id,
    read_trace_file,
    span_tree,
)
from repro.telemetry import trace as trace_module
from repro.telemetry.trace import NOOP_SPAN

CONFIG = MateConfig(expected_unique_values=100_000, k=5)


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=29, num_queries=2, corpus_scale=0.3)


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_current_trace_id_follows_the_innermost_span(self):
        tracer = Tracer(InMemoryExporter())
        try:
            assert current_trace_id() is None
            with tracer.span("outer") as outer:
                assert current_trace_id() == outer.trace_id
                with tracer.span("inner"):
                    assert current_trace_id() == outer.trace_id
            assert current_trace_id() is None
        finally:
            tracer.close()

    def test_nested_spans_parent_through_the_contextvar(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter)
        try:
            assert trace_module._ACTIVE > 0
            with tracer.span("outer") as outer:
                assert current_span() is outer
                with tracer.span("inner") as inner:
                    assert current_span() is inner
                    assert inner.trace_id == outer.trace_id
                    assert inner.parent_id == outer.span_id
                assert current_span() is outer
            assert current_span() is None
        finally:
            tracer.close()
        names = [span["name"] for span in exporter.spans]
        assert names == ["inner", "outer"]  # children finish first
        assert exporter.spans[1]["parent_id"] is None
        assert all(span["duration"] >= 0 for span in exporter.spans)
        assert all(span["pid"] == os.getpid() for span in exporter.spans)

    def test_disabled_tracer_allocates_nothing(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter, enabled=False)
        with tracer.span("ignored") as span:
            assert span is NOOP_SPAN
            assert span.trace_id == ""
            span.set_attribute("key", "dropped")
        assert exporter.spans == []
        assert NOOP_SPAN.attributes == {}
        tracer.close()

    def test_explicit_parent_context_wins_over_the_contextvar(self):
        tracer = Tracer(InMemoryExporter())
        try:
            context = TraceContext(trace_id="f" * 16, span_id="a" * 16)
            span = tracer.start_span("child", parent=context)
            assert span.trace_id == "f" * 16
            assert span.parent_id == "a" * 16
            tracer.end_span(span)
        finally:
            tracer.close()

    def test_emit_exports_a_premeasured_span(self):
        exporter = InMemoryExporter()
        tracer = Tracer(exporter)
        try:
            parent = tracer.start_span("run")
            emitted = tracer.emit(
                "stage.fetch",
                parent=parent,
                duration=0.5,
                attributes={"calls": 3},
            )
            tracer.end_span(parent)
        finally:
            tracer.close()
        assert emitted.parent_id == parent.span_id
        stage = next(s for s in exporter.spans if s["name"] == "stage.fetch")
        assert stage["duration"] == 0.5
        assert stage["trace_id"] == parent.trace_id
        assert stage["attributes"] == {"calls": 3}

    def test_jsonl_exporter_round_trips_a_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonLinesExporter(path))
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tracer.close()
        spans = read_trace_file(path)
        assert [span["name"] for span in spans] == ["child", "root"]
        tree = span_tree(spans)
        assert [span["name"] for span in tree[None]] == ["root"]
        root_id = tree[None][0]["span_id"]
        assert [span["name"] for span in tree[root_id]] == ["child"]

    def test_close_retires_the_active_count(self):
        before = trace_module._ACTIVE
        tracer = Tracer(InMemoryExporter())
        assert trace_module._ACTIVE == before + 1
        tracer.close()
        tracer.close()  # idempotent
        assert trace_module._ACTIVE == before


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_a_gauge_callback_is_read_at_every_scrape(self):
        registry = MetricsRegistry()
        inflight = [4]
        registry.gauge_callback("repro_test_inflight", lambda: inflight[0])
        assert "repro_test_inflight 4" in registry.render_prometheus()
        inflight[0] -= 1
        assert "repro_test_inflight 3" in registry.render_prometheus()
        inflight[0] += 2
        assert "repro_test_inflight 5" in registry.render_prometheus()

    def test_counter_is_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_registration_is_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total")
        assert registry.counter("repro_test_total") is first
        with pytest.raises(ValueError):
            registry.histogram("repro_test_total")

    def test_histogram_buckets_and_percentiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_test_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(5.6)
        counts = dict(histogram.bucket_counts())
        assert counts[0.1] == 2
        assert counts[1.0] == 3
        assert counts[math.inf] == 4
        assert histogram.percentile(0.5) == 0.1
        assert histogram.percentile(0.99) == 10.0
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    def test_empty_histogram_percentile_is_zero(self):
        histogram = MetricsRegistry().histogram("repro_test_seconds")
        assert histogram.percentile(0.99) == 0.0

    def test_render_prometheus_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", "a counter").inc(2)
        registry.gauge_callback("repro_test_inflight", lambda: 1, "a gauge")
        registry.histogram(
            "repro_test_seconds", "a histogram", buckets=(0.5,)
        ).observe(0.2)
        registry.counter_callback("repro_test_pulled_total", lambda: 7, "cb")
        text = registry.render_prometheus()
        lines = text.strip().splitlines()
        assert "# HELP repro_test_total a counter" in lines
        assert "# TYPE repro_test_total counter" in lines
        assert "# TYPE repro_test_seconds histogram" in lines
        assert 'repro_test_seconds_bucket{le="0.5"} 1' in lines
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in lines
        assert "repro_test_seconds_count 1" in lines
        assert "repro_test_pulled_total 7.0" in lines
        for line in lines:
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name, f"unparseable exposition line: {line!r}"
            float(value)  # every sample value must be a number

    def test_failing_callback_does_not_kill_the_scrape(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc()

        def explode():
            raise RuntimeError("scrape-time failure")

        registry.counter_callback("repro_test_broken_total", explode)
        text = registry.render_prometheus()
        assert "repro_test_total 1.0" in text
        sample_lines = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert not any(
            line.startswith("repro_test_broken_total") for line in sample_lines
        )
        assert registry.snapshot()["repro_test_broken_total"] is None

    def test_snapshot_summarises_histograms(self):
        registry = MetricsRegistry()
        registry.histogram("repro_test_seconds", buckets=(0.1, 1.0)).observe(
            0.05
        )
        snapshot = registry.snapshot()
        summary = snapshot["repro_test_seconds"]
        assert summary["count"] == 1
        assert summary["p50"] == 0.1
        assert summary["p99"] == 0.1


# ----------------------------------------------------------------------
# JSON logs and the slow-query log
# ----------------------------------------------------------------------
def make_record(message="hello", **extra):
    record = logging.LogRecord(
        "repro.test", logging.INFO, __file__, 1, message, (), None
    )
    for key, value in extra.items():
        setattr(record, key, value)
    return record


class TestJsonLogFormatter:
    def test_renders_single_line_json(self):
        document = json.loads(JsonLogFormatter().format(make_record()))
        assert document["message"] == "hello"
        assert document["level"] == "INFO"
        assert document["logger"] == "repro.test"
        assert "trace_id" not in document

    def test_explicit_trace_id_and_extras_pass_through(self):
        record = make_record(trace_id="beef" * 4, request_label="q1")
        document = json.loads(JsonLogFormatter().format(record))
        assert document["trace_id"] == "beef" * 4
        assert document["request_label"] == "q1"

    def test_trace_id_falls_back_to_the_active_span(self):
        tracer = Tracer(InMemoryExporter())
        try:
            with tracer.span("op") as span:
                document = json.loads(JsonLogFormatter().format(make_record()))
            assert document["trace_id"] == span.trace_id
        finally:
            tracer.close()


class TestSlowQueryLog:
    def entry(self, seconds=2.0):
        return SlowQueryEntry(
            request="q", engine="mate", seconds=seconds, threshold_seconds=1.0
        )

    def test_threshold_gate(self):
        log = SlowQueryLog(threshold_seconds=1.0)
        assert not log.should_record(0.5)
        assert log.should_record(1.0)

    def test_ring_buffer_keeps_newest(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        for seconds in (1.0, 2.0, 3.0):
            log.record(self.entry(seconds))
        assert len(log) == 2
        assert log.recorded_total == 3
        assert [entry["seconds"] for entry in log.entries()] == [3.0, 2.0]

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)
        with pytest.raises(ValueError):
            SlowQueryLog(threshold_seconds=-1.0)


# ----------------------------------------------------------------------
# Session integration: metrics, slow log, batch-failure logging
# ----------------------------------------------------------------------
class TestSessionTelemetry:
    def test_requests_feed_the_registry(self, workload):
        with DiscoverySession(workload.corpus, config=CONFIG) as session:
            session.discover(DiscoveryRequest(query=workload.queries[0]))
            snapshot = session.telemetry.metrics.snapshot()
        assert snapshot["repro_session_requests_total"] == 1.0
        assert snapshot["repro_session_failures_total"] == 0.0
        assert snapshot["repro_request_latency_seconds"]["count"] == 1
        assert snapshot["repro_discovery_tables_evaluated_total"] >= 0.0

    def test_slow_queries_are_recorded_with_context(self, workload):
        telemetry = Telemetry(slow_log=SlowQueryLog(threshold_seconds=0.0))
        session = DiscoverySession(
            workload.corpus, config=CONFIG, telemetry=telemetry
        )
        try:
            session.discover(DiscoveryRequest(query=workload.queries[0]))
        finally:
            session.close()
            telemetry.close()
        entries = telemetry.slow_log.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["engine"] == "mate"
        assert entry["seconds"] >= 0.0
        assert entry["threshold_seconds"] == 0.0
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["repro_slowlog_recorded_total"] == 1.0

    def test_batch_failures_are_logged_with_the_trace_id(
        self, workload, caplog
    ):
        """Regression: a failed batch query must land in the structured log,
        keyed by the query's trace id — not just in BatchStats.failures."""
        telemetry = Telemetry(tracer=Tracer(InMemoryExporter()))
        session = DiscoverySession(
            workload.corpus, config=CONFIG, telemetry=telemetry
        )
        try:
            requests = [
                DiscoveryRequest(query=workload.queries[0]),
                DiscoveryRequest(
                    query=workload.queries[1],
                    engine="warp-drive",
                    request_id="bad-engine",
                ),
            ]
            with caplog.at_level(logging.ERROR, logger="repro.session"):
                batch = session.discover_batch(requests, on_error="collect")
        finally:
            session.close()
            telemetry.close()
        assert batch.results[0] is not None and batch.results[1] is None
        assert len(batch.failures) == 1
        assert isinstance(batch.failures[0], EngineNotFoundError)
        records = [
            record
            for record in caplog.records
            if record.name == "repro.session"
            and "batch query failed" in record.getMessage()
        ]
        assert len(records) == 1
        record = records[0]
        assert record.request_label == "bad-engine"
        assert record.engine == "warp-drive"
        # The error was raised inside discover()'s root span, so the trace
        # id stamped onto it is a real 16-hex id from the enabled tracer.
        assert isinstance(record.trace_id, str)
        assert len(record.trace_id) == 16
        int(record.trace_id, 16)

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_batch_requests_join_the_caller_trace(self, workload, max_workers):
        """Regression: on the session's pool every batch request started a
        new trace — ``ThreadPoolExecutor.map`` does not carry the caller's
        contextvars, so ``session.discover`` lost its parent span."""
        exporter = InMemoryExporter()
        telemetry = Telemetry(tracer=Tracer(exporter))
        session = DiscoverySession(
            workload.corpus,
            config=CONFIG,
            service_config=ServiceConfig(max_workers=max_workers),
            telemetry=telemetry,
        )
        requests = [
            DiscoveryRequest(query=query, request_id=f"q{position}")
            for position, query in enumerate(workload.queries * 2)
        ]
        try:
            with telemetry.tracer.span("caller") as caller:
                session.discover_batch(requests)
        finally:
            session.close()
            telemetry.close()
        discovers = [
            span for span in exporter.spans if span["name"] == "session.discover"
        ]
        assert len(discovers) == 4
        assert [span["parent_id"] for span in discovers] == [caller.span_id] * 4
        assert {span["trace_id"] for span in discovers} == {caller.trace_id}


# ----------------------------------------------------------------------
# Pool integration: pool counters flow into the registry
# ----------------------------------------------------------------------
class TestPoolMetrics:
    def test_pool_counters_reach_the_prometheus_text(self, workload):
        telemetry = Telemetry.disabled()
        pool = ProcessShardPool(
            workload.corpus,
            config=CONFIG,
            hash_function_name="xash",
            serve_config=ServeConfig(num_shards=2),
            telemetry=telemetry,
        )
        try:
            for query in workload.queries:
                pool.discover(query, k=CONFIG.k)
            samples = {}
            for line in telemetry.metrics.render_prometheus().splitlines():
                if line.startswith("#"):
                    continue
                name, _, value = line.rpartition(" ")
                samples[name] = float(value)
        finally:
            pool.close()
        assert samples["repro_pool_requests_total"] == 2.0
        assert samples["repro_pool_num_shards"] == 2.0
        assert samples["repro_pool_scatter_seconds_total"] >= 0.0
        assert samples["repro_pool_gather_seconds_total"] >= 0.0
        assert samples["repro_pool_replies_discarded_total"] >= 0.0


# ----------------------------------------------------------------------
# HTTP front-end helpers
# ----------------------------------------------------------------------
class TestTraceHeaders:
    def test_real_span_id_wins(self):
        tracer = Tracer(InMemoryExporter())
        try:
            span = tracer.start_span("http.discover")
            headers = DiscoveryHTTPServer._trace_headers(span, "client-id")
            assert headers == {"X-Trace-Id": span.trace_id}
        finally:
            tracer.close()

    def test_noop_span_echoes_the_client_header(self):
        headers = DiscoveryHTTPServer._trace_headers(NOOP_SPAN, "cafe" * 4)
        assert headers == {"X-Trace-Id": "cafe" * 4}

    def test_no_trace_at_all_adds_no_header(self):
        assert DiscoveryHTTPServer._trace_headers(NOOP_SPAN, "") is None


# ----------------------------------------------------------------------
# Acceptance: one cross-process span tree from a JSONL trace file
# ----------------------------------------------------------------------
class TestCrossProcessTrace:
    def test_process_execution_forms_a_single_tree(self, workload, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        telemetry = Telemetry.with_trace_file(trace_path)
        session = DiscoverySession(
            workload.corpus,
            config=CONFIG,
            execution="process",
            serve_config=ServeConfig(num_shards=2),
            telemetry=telemetry,
        )
        try:
            result = session.discover(
                DiscoveryRequest(query=workload.queries[0], engine="sharded")
            )
            assert result.tables is not None
        finally:
            session.close()
            telemetry.close()

        spans = read_trace_file(trace_path)
        assert spans, "process-execution discovery exported no spans"

        trace_ids = {span["trace_id"] for span in spans}
        assert len(trace_ids) == 1, f"expected one trace, got {trace_ids}"

        by_id = {span["span_id"]: span for span in spans}
        tree = span_tree(spans)
        roots = tree.get(None, [])
        assert [span["name"] for span in roots] == ["session.discover"]
        root = roots[0]
        for span in spans:
            if span is root:
                continue
            assert span["parent_id"] in by_id, (
                f"span {span['name']} has a dangling parent "
                f"{span['parent_id']!r}"
            )

        pool_spans = [s for s in spans if s["name"] == "pool.discover"]
        assert len(pool_spans) == 1
        assert pool_spans[0]["parent_id"] == root["span_id"]

        shard_spans = [s for s in spans if s["name"] == "shard.discover"]
        assert len(shard_spans) == 2
        parent_pid = os.getpid()
        for span in shard_spans:
            assert span["parent_id"] == pool_spans[0]["span_id"]
            assert span["pid"] != parent_pid, (
                "shard span recorded in the parent process — the trace "
                "context did not cross the IPC boundary"
            )
