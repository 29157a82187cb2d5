"""Serving-side metrics: pool-lifetime scatter/gather counters.

The per-request numbers live in ``DiscoveryCounters.stages`` (the
``"scatter"`` / ``"gather"`` entries the process pool attaches to every
merged result); :class:`ServeMetrics` is the *lifetime* aggregate a
long-running pool keeps for its ``/v1/stats`` endpoint — total requests,
cumulative stage stats and straggler accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .timing import StageStats


@dataclass
class ServeMetrics:
    """Lifetime serving counters of one :class:`~repro.serve.pool.ProcessShardPool`."""

    #: Scatter/gather requests served since the pool started.
    requests: int = 0
    #: Cumulative scatter-side stage stats (fan-out bookkeeping + sends).
    scatter: StageStats = field(default_factory=StageStats)
    #: Cumulative gather-side stage stats (waiting on shard replies + merge).
    gather: StageStats = field(default_factory=StageStats)
    #: Total worker-side engine seconds across all shards and requests.
    shard_seconds: float = 0.0
    #: Worker-side seconds of the slowest shard, per request, summed — the
    #: gap to ``shard_seconds / num_shards`` measures load imbalance.
    straggler_seconds: float = 0.0
    #: Late replies dropped because their request had already ended.
    replies_discarded: int = 0

    def record(
        self,
        scatter: StageStats,
        gather: StageStats,
        shard_seconds: list[float],
    ) -> None:
        """Fold one request's scatter/gather stats into the lifetime totals."""
        self.requests += 1
        self.scatter.merge(scatter)
        self.gather.merge(gather)
        if shard_seconds:
            self.shard_seconds += sum(shard_seconds)
            self.straggler_seconds += max(shard_seconds)

    def as_dict(self) -> dict[str, object]:
        """JSON-ready view, used by the HTTP ``/v1/stats`` endpoint."""
        return {
            "requests": self.requests,
            "scatter": self.scatter.as_dict(),
            "gather": self.gather.as_dict(),
            "shard_seconds": self.shard_seconds,
            "straggler_seconds": self.straggler_seconds,
            "replies_discarded": self.replies_discarded,
        }


__all__ = ["ServeMetrics"]
