"""The unified discovery API: one typed request surface over every engine.

This package is the public front door of the reproduction (the API layer the
ROADMAP's serving story builds on):

* :class:`~repro.api.request.DiscoveryRequest` — the frozen request contract
  (query, ``k``, engine name, Algorithm 1 knobs, and the per-request
  ``deadline_seconds`` / ``max_pl_fetches`` limits);
* :class:`~repro.api.session.DiscoverySession` — the facade owning corpus +
  index + cache lifecycle, with ``discover`` / ``discover_batch`` /
  ``submit`` / ``asubmit`` entry points;
* :mod:`~repro.api.registry` — the engine registry (``mate``, ``sharded``,
  ``scr``, ``mcr``, ``josie``, ``prefix_tree``, plus anything registered via
  :meth:`EngineRegistry.register <repro.api.registry.EngineRegistry.register>`);
* :class:`~repro.api.results.SessionResult` / :class:`~repro.api.results.SessionBatch`
  (with its :class:`~repro.api.results.BatchStats`) — attributable,
  JSON-serialisable responses sharing the versioned envelope of
  :mod:`~repro.api.schema`.

A :class:`~repro.core.discovery.MateDiscovery` built by hand keeps working;
the session is the one serving facade over it.
"""

from .registry import (
    DEFAULT_REGISTRY,
    EngineRegistry,
    EngineSpec,
    available_engines,
)
from .request import DEFAULT_ENGINE, DiscoveryRequest, RequestBudget
from ..plan import PlannerOptions
from ..sketch import SketchOptions
from .results import BatchStats, SessionBatch, SessionResult
from .schema import SCHEMA_VERSION, json_envelope
from .session import DiscoverySession

__all__ = [
    "BatchStats",
    "DEFAULT_ENGINE",
    "DEFAULT_REGISTRY",
    "DiscoveryRequest",
    "DiscoverySession",
    "EngineRegistry",
    "EngineSpec",
    "PlannerOptions",
    "RequestBudget",
    "SCHEMA_VERSION",
    "SessionBatch",
    "SessionResult",
    "SketchOptions",
    "available_engines",
    "json_envelope",
]
