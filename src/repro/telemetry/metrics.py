"""A thread-safe metrics registry with Prometheus text exposition.

Two instrument kinds — :class:`Counter` (monotonic) and :class:`Histogram`
(fixed buckets, so p50/p99 come out of the bucket counts without storing
samples) — plus *callback* instruments that pull a value (a count or a
point-in-time gauge) from existing aggregates at scrape time.  The callbacks
are how the pre-existing silos (:class:`~repro.metrics.serving.ServeMetrics`,
the slow-query log, the admission controller)
flow into one registry without restructuring their owners: each subsystem
registers ``name -> lambda`` pairs once and the registry evaluates them on
:meth:`MetricsRegistry.render_prometheus` / :meth:`MetricsRegistry.snapshot`.

Metric naming convention (documented in ARCHITECTURE "## Telemetry"):
``repro_<subsystem>_<quantity>[_total|_seconds]`` — e.g.
``repro_session_requests_total``, ``repro_slowlog_recorded_total``,
``repro_pool_requests_total``, ``repro_request_latency_seconds``.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Callable, Iterable

#: Default latency buckets (seconds): sub-millisecond to ten seconds.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str] | None) -> _LabelKey:
    return tuple(sorted((labels or {}).items()))


def _render_labels(key: _LabelKey, extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class Counter:
    """A monotonically increasing count (thread-safe)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = ""):
        self.name = name
        self.help_text = help_text
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Fixed-bucket distribution; percentiles come from the bucket counts.

    Buckets are cumulative upper bounds (Prometheus ``le`` semantics) with
    an implicit ``+Inf`` bucket, so ``observe`` is one bisect plus two adds
    — cheap enough for per-request latency recording.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.name = name
        self.help_text = help_text
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending with ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        cumulative, out = 0, []
        bounds = list(self.buckets) + [math.inf]
        for bound, count in zip(bounds, counts):
            cumulative += count
            out.append((bound, cumulative))
        return out

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-quantile (0..1) from the bucket counts.

        Returns the upper bound of the first bucket whose cumulative count
        reaches ``q * count`` (the largest finite bound for the +Inf
        bucket); 0.0 when empty.  Good enough for p50/p99 dashboards — the
        error is bounded by the bucket width.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        total = self._count
        if total == 0:
            return 0.0
        rank = q * total
        for bound, cumulative in self.bucket_counts():
            if cumulative >= rank:
                return self.buckets[-1] if math.isinf(bound) else bound
        return self.buckets[-1]  # pragma: no cover - defensive


class _Callback:
    """A scrape-time instrument: value pulled from a callable."""

    def __init__(self, name: str, fn: Callable[[], float], kind: str, help_text: str):
        self.name = name
        self.fn = fn
        self.kind = kind
        self.help_text = help_text

    @property
    def value(self) -> float:
        return float(self.fn())


class MetricsRegistry:
    """Owns every instrument; renders Prometheus text and dict snapshots.

    Instruments are identified by ``(name, labels)``: repeated registration
    with the same identity returns the existing instrument, so subsystems
    can call ``registry.counter(...)`` idempotently from their constructors.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, _LabelKey], object] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, labels, factory, kind: str):
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is not None:
                if existing.kind != kind:  # type: ignore[attr-defined]
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"  # type: ignore[attr-defined]
                    )
                return existing
            instrument = factory()
            self._instruments[key] = instrument
            return instrument

    def counter(
        self, name: str, help_text: str = "", labels: dict[str, str] | None = None
    ) -> Counter:
        return self._get_or_create(
            name, labels, lambda: Counter(name, help_text), "counter"
        )

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        return self._get_or_create(
            name, labels, lambda: Histogram(name, help_text, buckets), "histogram"
        )

    def counter_callback(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: dict[str, str] | None = None,
    ) -> None:
        """Expose an externally-maintained monotonic count at scrape time."""
        key = (name, _label_key(labels))
        with self._lock:
            self._instruments[key] = _Callback(name, fn, "counter", help_text)

    def gauge_callback(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: dict[str, str] | None = None,
    ) -> None:
        """Expose an externally-maintained point-in-time value at scrape time."""
        key = (name, _label_key(labels))
        with self._lock:
            self._instruments[key] = _Callback(name, fn, "gauge", help_text)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def _items(self) -> list[tuple[str, _LabelKey, object]]:
        with self._lock:
            items = [
                (name, labels, instrument)
                for (name, labels), instrument in self._instruments.items()
            ]
        return sorted(items, key=lambda item: (item[0], item[1]))

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for name, labels, instrument in self._items():
            kind = instrument.kind  # type: ignore[attr-defined]
            if name not in seen_header:
                help_text = getattr(instrument, "help_text", "") or name
                lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {kind}")
                seen_header.add(name)
            if kind == "histogram":
                assert isinstance(instrument, Histogram)
                for bound, cumulative in instrument.bucket_counts():
                    le = "+Inf" if math.isinf(bound) else repr(bound)
                    rendered = _render_labels(labels, 'le="%s"' % le)
                    lines.append(f"{name}_bucket{rendered} {cumulative}")
                lines.append(f"{name}_sum{_render_labels(labels)} {instrument.sum}")
                lines.append(
                    f"{name}_count{_render_labels(labels)} {instrument.count}"
                )
            else:
                try:
                    value = instrument.value  # type: ignore[attr-defined]
                except Exception:  # noqa: BLE001 - a callback must not kill /metrics
                    continue
                lines.append(f"{name}{_render_labels(labels)} {value}")
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict[str, object]:
        """A plain-dict view of every instrument (the ``/v1/stats`` base)."""
        out: dict[str, object] = {}
        for name, labels, instrument in self._items():
            key = name if not labels else name + _render_labels(labels)
            kind = instrument.kind  # type: ignore[attr-defined]
            if kind == "histogram":
                assert isinstance(instrument, Histogram)
                out[key] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "p50": instrument.percentile(0.50),
                    "p99": instrument.percentile(0.99),
                }
            else:
                try:
                    out[key] = instrument.value  # type: ignore[attr-defined]
                except Exception:  # noqa: BLE001 - scrape-time callback failed
                    out[key] = None
        return out


__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
]
