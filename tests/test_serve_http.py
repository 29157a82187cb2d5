"""Tests for the HTTP front end (repro.serve.http) and admission control.

The admission controller is exercised as a plain object with a fake clock;
the server tests run a real :class:`DiscoveryHTTPServer` on an ephemeral
port inside a background event-loop thread and talk to it over actual
sockets, because the request-parsing / backpressure / drain behaviour being
verified lives in the byte-level protocol, not in the handler functions.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import DiscoveryRequest, DiscoverySession, SlowQueryLog, Telemetry
from repro.cli import main
from repro.config import MateConfig
from repro.exceptions import ConfigurationError
from repro.datagen import build_workload
from repro.serve import (
    AdmissionController,
    DiscoveryHTTPServer,
    TenantQuota,
)

CONFIG = MateConfig(expected_unique_values=100_000, k=5)

#: Result fields that legitimately differ between two runs of the same
#: request (wall-clock timing); stripped before envelope comparison.
TIMING_FIELDS = ("runtime_seconds",)


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class TestTenantQuota:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantQuota(max_inflight=0)
        with pytest.raises(ConfigurationError):
            TenantQuota(max_pl_fetches_per_request=-1)

    def test_clamp_fetches(self):
        unlimited = TenantQuota()
        assert unlimited.clamp_fetches(None) is None
        assert unlimited.clamp_fetches(7) == 7
        capped = TenantQuota(max_pl_fetches_per_request=5)
        assert capped.clamp_fetches(None) == 5
        assert capped.clamp_fetches(9) == 5
        assert capped.clamp_fetches(3) == 3


class TestAdmissionController:
    def test_capacity_rejection_carries_retry_after(self):
        controller = AdmissionController(
            max_pending=1, retry_after_seconds=2.5, clock=FakeClock()
        )
        first = controller.try_acquire()
        assert first.admitted and first.ticket is not None
        second = controller.try_acquire()
        assert not second.admitted
        assert second.status == 429
        assert second.retry_after_seconds == 2.5
        controller.release(first.ticket)
        assert controller.try_acquire().admitted

    def test_tenant_quota_is_per_tenant(self):
        controller = AdmissionController(
            max_pending=10, tenant_quota=TenantQuota(max_inflight=1)
        )
        first = controller.try_acquire("alice")
        assert first.admitted
        blocked = controller.try_acquire("alice")
        assert not blocked.admitted and blocked.status == 429
        assert "alice" in blocked.reason
        other = controller.try_acquire("bob")
        assert other.admitted
        controller.release(first.ticket)
        assert controller.try_acquire("alice").admitted

    def test_drain_refuses_with_503_and_signals_empty(self):
        clock = FakeClock()
        controller = AdmissionController(max_pending=4, clock=clock)
        ticket = controller.try_acquire().ticket
        controller.begin_drain()
        refused = controller.try_acquire()
        assert not refused.admitted and refused.status == 503
        assert not controller.wait_drained(timeout=0)
        controller.release(ticket)
        assert controller.wait_drained(timeout=0)
        stats = controller.stats()
        assert stats["draining"] is True
        assert stats["inflight"] == 0
        assert stats["drained_rejects"] == 1

    def test_stats_track_tenants(self):
        controller = AdmissionController(max_pending=4)
        controller.try_acquire("alice")
        controller.try_acquire("alice")
        assert controller.stats()["tenants"] == {"alice": 2}


# ----------------------------------------------------------------------
# Live-server tests
# ----------------------------------------------------------------------
class ServerHarness:
    """A DiscoveryHTTPServer running in a background event-loop thread."""

    def __init__(self, session, **server_kwargs):
        self.server = DiscoveryHTTPServer(session, **server_kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self._run(self.server.start())

    def _run(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(
            timeout=30
        )

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def request(self, method, path, body=None, headers=None):
        """Return (status, parsed-JSON body, response headers)."""
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers=headers or {},
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return response.status, json.load(response), dict(
                    response.headers
                )
        except urllib.error.HTTPError as error:
            payload = json.loads(error.read() or b"{}")
            return error.code, payload, dict(error.headers)

    def drain(self):
        self._run(self.server.drain_and_stop())

    def close(self):
        try:
            if self.server._server is not None:
                self.drain()
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=10)
            self.loop.close()


@pytest.fixture(scope="module")
def workload():
    return build_workload("WT_100", seed=23, num_queries=1, corpus_scale=0.3)


@pytest.fixture(scope="module")
def session(workload):
    with DiscoverySession(workload.corpus, config=CONFIG) as active:
        yield active


@pytest.fixture(scope="module")
def harness(session):
    active = ServerHarness(session)
    yield active
    active.close()


def discover_body(workload, **overrides) -> bytes:
    query = workload.queries[0]
    document = {
        "query": {
            "name": query.table.name,
            "columns": list(query.table.columns),
            "rows": [list(row) for row in query.table.rows],
        },
        "key_columns": list(query.key_columns),
        "k": CONFIG.k,
    }
    document.update(overrides)
    return json.dumps(document).encode("utf-8")


class TestHTTPServer:
    def test_healthz(self, harness):
        status, body, _ = harness.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "serving"

    def test_engines_listing(self, harness, session):
        status, body, _ = harness.request("GET", "/v1/engines")
        assert status == 200
        assert body["engines"] == sorted(session.registry.names())
        # Registry-backed engines surface automatically; the pushdown
        # engine must be addressable over HTTP like any other.
        assert "sql" in body["engines"]

    def test_unknown_route_is_404(self, harness):
        status, body, _ = harness.request("GET", "/nope")
        assert status == 404

    def test_discover_envelope_round_trip(self, harness, session, workload):
        """The HTTP envelope is the in-process envelope, modulo timing."""
        status, served, _ = harness.request(
            "POST", "/v1/discover", body=discover_body(workload)
        )
        assert status == 200
        reference = session.discover(
            DiscoveryRequest(query=workload.queries[0], k=CONFIG.k)
        )
        expected = json.loads(json.dumps(reference.to_dict()))

        def normalise(envelope):
            for field in TIMING_FIELDS:
                envelope["counters"].pop(field, None)
            for stage in envelope.get("stages", {}).values():
                stage.pop("seconds", None)
            envelope["counters"].pop("stages", None)
            envelope.pop("request_id", None)
            return envelope

        assert normalise(served) == normalise(expected)

    def test_bad_request_bodies_are_400(self, harness, workload):
        status, body, _ = harness.request("POST", "/v1/discover", body=b"nope")
        assert status == 400
        status, body, _ = harness.request(
            "POST", "/v1/discover", body=json.dumps({"query": {}}).encode()
        )
        assert status == 400
        assert "key_columns" in body["error"]

    def test_unknown_engine_is_500(self, harness, workload):
        status, body, _ = harness.request(
            "POST",
            "/v1/discover",
            body=discover_body(workload, engine="warp-drive"),
        )
        assert status == 500

    def test_stats_endpoint(self, harness, session):
        status, body, _ = harness.request("GET", "/v1/stats")
        assert status == 200
        assert body["admission"]["inflight"] == 0
        assert body["execution"] == "thread"
        assert set(body["engines"]) == set(session.engines())


class TestBackpressureAndDrain:
    def test_zero_capacity_server_returns_429_with_retry_after(
        self, session, workload
    ):
        harness = ServerHarness(
            session,
            admission=AdmissionController(max_pending=0, retry_after_seconds=3.0),
        )
        try:
            status, body, headers = harness.request(
                "POST", "/v1/discover", body=discover_body(workload)
            )
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert "capacity" in body["error"]
        finally:
            harness.close()

    def test_drain_flips_healthz_and_refuses_discover(self, session, workload):
        harness = ServerHarness(session)
        try:
            harness.server.admission.begin_drain()
            status, body, _ = harness.request("GET", "/healthz")
            assert status == 503
            assert body["status"] == "draining"
            status, body, _ = harness.request(
                "POST", "/v1/discover", body=discover_body(workload)
            )
            assert status == 503
        finally:
            harness.close()

    def test_tenant_header_feeds_quota(self, session, workload):
        harness = ServerHarness(
            session,
            admission=AdmissionController(
                max_pending=8, tenant_quota=TenantQuota(max_inflight=1)
            ),
        )
        try:
            status, _, _ = harness.request(
                "POST",
                "/v1/discover",
                body=discover_body(workload),
                headers={"X-Tenant": "alice"},
            )
            assert status == 200
            assert harness.server.admission.stats()["tenants"] == {}
        finally:
            harness.close()


class TestSlowlogCommand:
    """``repro slowlog URL`` prints a running server's ``GET /v1/slow``."""

    @pytest.fixture(scope="class")
    def slow_harness(self, workload):
        telemetry = Telemetry(slow_log=SlowQueryLog(threshold_seconds=0))
        with DiscoverySession(
            workload.corpus, config=CONFIG, telemetry=telemetry
        ) as session:
            harness = ServerHarness(session)
            try:
                status, _, _ = harness.request(
                    "POST", "/v1/discover", body=discover_body(workload)
                )
                assert status == 200
                yield harness
            finally:
                harness.close()
                telemetry.close()

    def test_prints_the_entry_and_its_stages(
        self, slow_harness, workload, capsys
    ):
        assert main(["slowlog", slow_harness.base_url]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "slow-query log: 1 recorded over 0s, 1/64 retained (newest first)"
        )
        label = DiscoveryRequest(query=workload.queries[0]).label
        assert lines[1].startswith(f"  [-] {label!r} via mate: ")
        stages = dict(line.strip().split(": ", 1) for line in lines[2:])
        assert list(stages) == [
            "candidate_generation", "superkey_prefilter", "row_verification",
            "topk_maintenance",
        ]
        assert all(" calls, " in stats for stats in stages.values())

    def test_json_prints_the_document(self, slow_harness, capsys):
        assert main(["slowlog", slow_harness.base_url, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["recorded_total"] == 1
        [entry] = document["slow_queries"]
        assert entry["engine"] == "mate"

    def test_a_closed_port_exits_1(self, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["slowlog", f"http://127.0.0.1:{port}"]) == 1
        assert "cannot fetch" in capsys.readouterr().err
