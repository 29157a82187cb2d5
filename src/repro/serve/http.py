"""A stdlib-only asyncio HTTP/1.1 front end over :class:`DiscoverySession`.

No web framework: the serving surface is four small JSON routes and the
interesting parts — admission control, budget clamping, graceful drain — all
live in :mod:`repro.serve.quotas` and the session itself, so a hand-rolled
``asyncio.start_server`` loop keeps the dependency set at zero.

Routes::

    GET  /healthz       liveness + drain state (200 serving / 503 draining)
    GET  /metrics       the telemetry registry in Prometheus text format
    GET  /v1/engines    registered engine names
    GET  /v1/stats      admission counters + pool/scatter-gather statistics
                        + a snapshot of the telemetry metrics registry
    GET  /v1/slow       the slow-query log ring buffer, newest first
    POST /v1/discover   one DiscoveryRequest; the response body is the
                        stable SessionResult JSON envelope of
                        :meth:`repro.api.results.SessionResult.to_dict`

Tracing: ``POST /v1/discover`` accepts an ``X-Trace-Id`` request header
(joining the caller's trace) and always echoes the request's trace id back
in the ``X-Trace-Id`` response header, so a client can grep the server's
span file / slow log for exactly its request.

``POST /v1/discover`` carries the query table inline::

    {"query": {"name": "q", "columns": ["a", "b"], "rows": [["1", "x"]]},
     "key_columns": ["a", "b"], "k": 10, "engine": "mate",
     "deadline_seconds": 2.5, "max_pl_fetches": 10000}

The optional ``X-Tenant`` header attributes the request to a tenant for
quota accounting (default tenant otherwise).  Backpressure is explicit:
an admission refusal answers ``429`` with a ``Retry-After`` header (or
``503`` while draining) *before* any engine work happens, and the tenant
quota's per-request fetch cap is clamped onto the request budget so an
over-ask is bounded rather than rejected.

Every response closes its connection (``Connection: close``): serving
clients are expected to pool at a load balancer, and one-shot connections
keep the drain logic exact — when the listener closes and in-flight tickets
reach zero, the process owns no client state.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from typing import TYPE_CHECKING

from ..api.request import DiscoveryRequest
from ..datamodel import QueryTable, Table
from ..exceptions import MateError
from ..telemetry.trace import TraceContext
from .quotas import AdmissionController

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..api.session import DiscoverySession

#: Largest accepted ``POST /v1/discover`` body, in bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Content type of the ``GET /metrics`` Prometheus exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _HttpError(Exception):
    """Internal: maps straight to an error response."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class DiscoveryHTTPServer:
    """The serving front end: asyncio listener + admission + session."""

    def __init__(
        self,
        session: "DiscoverySession",
        admission: AdmissionController | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        default_engine: str = "mate",
        drain_timeout: float = 30.0,
    ):
        self.session = session
        self.admission = admission or AdmissionController()
        self.host = host
        self.port = port
        self.default_engine = default_engine
        self.drain_timeout = drain_timeout
        self._server: asyncio.AbstractServer | None = None
        # The server's counters live in the session's telemetry registry
        # (the same one GET /metrics renders); admission counters join it
        # through scrape-time callbacks.
        self.telemetry = session.telemetry
        registry = self.telemetry.metrics
        self._requests_total = registry.counter(
            "repro_http_requests_total", "Completed POST /v1/discover requests"
        )
        self._request_latency = registry.histogram(
            "repro_http_request_latency_seconds",
            "POST /v1/discover latency (admission to response)",
        )
        self.admission.register_metrics(registry)

    @property
    def requests_served(self) -> int:
        """Completed discovery requests (now backed by the registry)."""
        return int(self._requests_total.value)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start serving; ``port=0`` resolves to an ephemeral port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: refuse new work, finish in-flight, unbind.

        New admissions are refused (503) immediately; the listener stops
        accepting; in-flight requests get up to ``drain_timeout`` seconds to
        finish before the server closes anyway.
        """
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.admission.wait_drained, self.drain_timeout
        )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, target, headers, body = await self._read_request(reader)
            except _HttpError as error:
                await self._respond(
                    writer, error.status, {"error": error.message}
                )
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            status, payload, extra_headers = await self._route(
                method, target, headers, body
            )
            await self._respond(writer, status, payload, extra_headers)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
        if not request_line:
            raise _HttpError(400, "empty request")
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise _HttpError(400, f"malformed request line: {request_line!r}")
        method, target, _version = parts
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        length = headers.get("content-length")
        if length is not None:
            try:
                n = int(length)
            except ValueError:
                raise _HttpError(400, f"bad Content-Length: {length!r}") from None
            if n > MAX_BODY_BYTES:
                raise _HttpError(
                    413, f"body of {n} bytes exceeds {MAX_BODY_BYTES}"
                )
            body = await reader.readexactly(n)
        return method, target, headers, body

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: "dict | str",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        # A dict payload is a JSON route; a str payload is pre-rendered text
        # (the Prometheus exposition of GET /metrics).
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, target: str, headers: dict[str, str], body: bytes
    ):
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "healthz is GET-only"}, None
            draining = self.admission.draining
            return (
                503 if draining else 200,
                {"status": "draining" if draining else "serving"},
                None,
            )
        if path == "/v1/engines":
            if method != "GET":
                return 405, {"error": "engines is GET-only"}, None
            return 200, {"engines": self.session.registry.names()}, None
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "metrics is GET-only"}, None
            return 200, self.telemetry.metrics.render_prometheus(), None
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": "stats is GET-only"}, None
            return 200, self._stats(), None
        if path == "/v1/slow":
            if method != "GET":
                return 405, {"error": "slow is GET-only"}, None
            slow_log = self.telemetry.slow_log
            return 200, {
                "threshold_seconds": slow_log.threshold_seconds,
                "capacity": slow_log.capacity,
                "recorded_total": slow_log.recorded_total,
                "slow_queries": slow_log.entries(),
            }, None
        if path == "/v1/discover":
            if method != "POST":
                return 405, {"error": "discover is POST-only"}, None
            return await self._discover(headers, body)
        return 404, {"error": f"unknown path {path!r}"}, None

    def _stats(self) -> dict:
        stats: dict[str, object] = {
            "requests_served": self.requests_served,
            "admission": self.admission.stats(),
            "engines": self.session.engines(),
            "execution": getattr(self.session, "execution", "thread"),
            # The registry snapshot is the same data GET /metrics renders as
            # Prometheus text — /v1/stats is rebuilt on top of it while the
            # legacy fields above keep their shape.
            "metrics": self.telemetry.metrics.snapshot(),
        }
        # Surface pool statistics when a process pool is among the cached
        # engines (scatter/gather stage totals, workers).
        pools = [
            engine.statistics()
            for engine in self.session.cached_engines()
            if hasattr(engine, "statistics")
        ]
        if pools:
            stats["pools"] = pools
        return stats

    async def _discover(self, headers: dict[str, str], body: bytes):
        tenant = headers.get("x-tenant", "default")
        decision = self.admission.try_acquire(tenant)
        if not decision.admitted:
            extra = None
            if decision.retry_after_seconds is not None:
                extra = {
                    "Retry-After": str(
                        max(1, math.ceil(decision.retry_after_seconds))
                    )
                }
            return decision.status, {"error": decision.reason}, extra
        try:
            try:
                request = self._parse_request(body)
            except _HttpError as error:
                return error.status, {"error": error.message}, None
            # Join the caller's trace when it sent X-Trace-Id; otherwise a
            # fresh root is opened (when tracing is enabled).  The trace id
            # is always echoed back so the client can correlate.
            trace_header = headers.get("x-trace-id", "").strip()
            parent = TraceContext(trace_id=trace_header) if trace_header else None
            started = time.perf_counter()
            tracer = self.telemetry.tracer
            with tracer.span(
                "http.discover",
                parent=parent,
                attributes={"tenant": tenant, "engine": request.engine},
            ) as span:
                try:
                    result = await self.session.asubmit(request)
                except MateError as error:
                    span.set_attribute("error", str(error))
                    return 500, {"error": str(error)}, self._trace_headers(
                        span, trace_header
                    )
            self._request_latency.observe(time.perf_counter() - started)
            self._requests_total.inc()
            return 200, result.to_dict(), self._trace_headers(span, trace_header)
        finally:
            assert decision.ticket is not None
            self.admission.release(decision.ticket)

    @staticmethod
    def _trace_headers(span, trace_header: str) -> dict[str, str] | None:
        trace_id = span.trace_id or trace_header
        return {"X-Trace-Id": trace_id} if trace_id else None

    def _parse_request(self, body: bytes) -> DiscoveryRequest:
        try:
            document = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise _HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise _HttpError(400, "body must be a JSON object")
        query_doc = document.get("query")
        if not isinstance(query_doc, dict):
            raise _HttpError(400, 'body needs a "query" object')
        key_columns = document.get("key_columns")
        if not isinstance(key_columns, list) or not key_columns:
            raise _HttpError(400, 'body needs a non-empty "key_columns" list')
        try:
            table = Table(
                table_id=0,
                name=str(query_doc.get("name", "query")),
                columns=[str(c) for c in query_doc.get("columns", [])],
                rows=[
                    [str(cell) for cell in row]
                    for row in query_doc.get("rows", [])
                ],
            )
            query = QueryTable(
                table=table, key_columns=[str(c) for c in key_columns]
            )
        except MateError as exc:
            raise _HttpError(400, f"invalid query table: {exc}") from exc
        max_pl_fetches = document.get("max_pl_fetches")
        quota = self.admission.tenant_quota
        max_pl_fetches = quota.clamp_fetches(
            None if max_pl_fetches is None else int(max_pl_fetches)
        )
        deadline = document.get("deadline_seconds")
        try:
            return DiscoveryRequest(
                query=query,
                k=None if document.get("k") is None else int(document["k"]),
                engine=str(document.get("engine", self.default_engine)),
                deadline_seconds=None if deadline is None else float(deadline),
                max_pl_fetches=max_pl_fetches,
                request_id=str(document.get("request_id") or ""),
            )
        except MateError as exc:
            raise _HttpError(400, f"invalid request: {exc}") from exc


async def _serve_until_signalled(server: DiscoveryHTTPServer) -> None:
    await server.start()
    # The smoke scripts parse this exact line to find the ephemeral port.
    print(f"serving on http://{server.host}:{server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-Unix event loops; rely on KeyboardInterrupt
    await stop.wait()
    print("draining...", flush=True)
    await server.drain_and_stop()
    print("drained, bye", flush=True)


def run_server(server: DiscoveryHTTPServer) -> int:
    """Serve until SIGINT/SIGTERM, drain gracefully, return the exit code."""
    try:
        asyncio.run(_serve_until_signalled(server))
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
    return 0


__all__ = [
    "DiscoveryHTTPServer",
    "MAX_BODY_BYTES",
    "run_server",
]
