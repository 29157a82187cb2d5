"""Instrumentation: counters, timing, precision, and serving aggregates."""

from .counters import CacheCounters, DiscoveryCounters
from .precision import PrecisionSummary, summarize_precision
from .serving import ServeMetrics
from .timing import StageStats

__all__ = [
    "CacheCounters",
    "DiscoveryCounters",
    "PrecisionSummary",
    "ServeMetrics",
    "StageStats",
    "summarize_precision",
]
