"""The engine registry: one front door over many discovery strategies.

Every discovery engine of the reproduction — MATE itself, its sharded
scale-out, and the SCR / MCR / JOSIE / prefix-tree baselines — is registered
here under a short name, entry-point style.  A
:class:`~repro.api.session.DiscoverySession` resolves
:attr:`DiscoveryRequest.engine <repro.api.request.DiscoveryRequest.engine>`
through the registry, so callers pick a strategy by name instead of wiring
constructors by hand, and downstream code (CLI, experiments, future serving
layers) can enumerate what is available via :func:`available_engines`.

Third-party engines plug in with::

    from repro.api import DEFAULT_REGISTRY

    def build_my_engine(session, request):
        return MyEngine(session.corpus, session.index, config=session.config)

    DEFAULT_REGISTRY.register("mine", build_my_engine, description="my engine")

A factory receives the owning session and the request and must return an
object exposing ``discover(query, k) -> DiscoveryResult``.  Engines that
additionally accept the ``budget=`` keyword of
:meth:`MateDiscovery.discover <repro.core.discovery.MateDiscovery.discover>`
should be registered with ``supports_budget=True`` so the session lets
per-request limits through (it refuses to silently drop a limit on an engine
that cannot enforce it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..exceptions import ConfigurationError, EngineNotFoundError

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from .request import DiscoveryRequest
    from .session import DiscoverySession

#: ``(session, request) -> engine``; the engine must expose ``discover``.
EngineFactory = Callable[["DiscoverySession", "DiscoveryRequest"], object]


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its factory plus dispatch metadata."""

    name: str
    factory: EngineFactory
    description: str = ""
    #: Whether the engine's ``discover`` accepts ``budget=``.
    supports_budget: bool = False
    #: Whether the engine's ``discover`` accepts ``planner=`` (the
    #: planner/executor pipeline of :mod:`repro.plan`).
    supports_planner: bool = False
    #: Whether the engine's ``discover`` accepts ``sketch=`` (the
    #: approximate candidate tier of :mod:`repro.sketch`).
    supports_sketch: bool = False


class EngineRegistry:
    """A name → :class:`EngineSpec` mapping with entry-point semantics."""

    def __init__(self) -> None:
        self._specs: dict[str, EngineSpec] = {}

    def register(
        self,
        name: str,
        factory: EngineFactory,
        *,
        description: str = "",
        supports_budget: bool = False,
        supports_planner: bool = False,
        supports_sketch: bool = False,
        replace: bool = False,
    ) -> EngineSpec:
        """Register ``factory`` under ``name`` and return its spec.

        Re-registering an existing name requires ``replace=True`` so typos
        cannot silently shadow a built-in engine.
        """
        if not name or not isinstance(name, str):
            raise ConfigurationError(
                f"engine name must be a non-empty string, got {name!r}"
            )
        if name in self._specs and not replace:
            raise ConfigurationError(
                f"engine {name!r} is already registered (pass replace=True)",
                engine=name,
            )
        spec = EngineSpec(
            name=name,
            factory=factory,
            description=description,
            supports_budget=supports_budget,
            supports_planner=supports_planner,
            supports_sketch=supports_sketch,
        )
        self._specs[name] = spec
        return spec

    def get(self, name: str) -> EngineSpec:
        """Return the spec for ``name``; raises :class:`EngineNotFoundError`."""
        spec = self._specs.get(name)
        if spec is None:
            raise EngineNotFoundError(
                f"unknown engine {name!r}; registered: {', '.join(self.names())}",
                engine=name,
            )
        return spec

    def names(self) -> list[str]:
        """Sorted names of every registered engine."""
        return sorted(self._specs)


# ----------------------------------------------------------------------
# Built-in engines
# ----------------------------------------------------------------------
def _build_mate(session: "DiscoverySession", request: "DiscoveryRequest"):
    from ..core.discovery import MateDiscovery

    return MateDiscovery(
        session.corpus,
        session.index,
        config=session.config,
        hash_function_name=request.hash_function,
        column_selector=request.column_selector,
        row_filter_mode=request.row_filter_mode,
        use_table_filters=request.use_table_filters,
        sketch_provider=session.sketch_index,
    )


def _build_sharded(session: "DiscoverySession", request: "DiscoveryRequest"):
    # Builds its own per-shard indexes from the corpus (the engine's design:
    # one index per worker); the session's central index is not consulted.
    # The session's execution mode picks the worker topology: "thread" runs
    # the shards one after another in-process, "process" hands each shard to
    # a worker process over mmap'd segments (same partitioning, same merge,
    # byte-identical top-k).
    if getattr(session, "execution", "thread") == "process":
        from ..serve.pool import ProcessShardPool, ServeConfig

        serve_config = session.serve_config
        if serve_config is None:
            serve_config = ServeConfig(
                num_shards=session.service_config.num_shards
            )
        return ProcessShardPool(
            session.corpus,
            config=session.config,
            hash_function_name=request.hash_function or "xash",
            column_selector=request.column_selector,
            row_filter_mode=request.row_filter_mode,
            use_table_filters=request.use_table_filters,
            serve_config=serve_config,
            telemetry=session.telemetry,
        )
    from ..core.parallel import ShardedMateDiscovery

    return ShardedMateDiscovery(
        session.corpus,
        num_shards=session.service_config.num_shards,
        config=session.config,
        hash_function_name=request.hash_function or "xash",
        column_selector=request.column_selector,
        row_filter_mode=request.row_filter_mode,
        use_table_filters=request.use_table_filters,
    )


def _build_scr(session: "DiscoverySession", request: "DiscoveryRequest"):
    from ..baselines import ScrDiscovery

    return ScrDiscovery(
        session.corpus,
        session.index,
        config=session.config,
        column_selector=request.column_selector,
        use_table_filters=request.use_table_filters,
        sketch_provider=session.sketch_index,
    )


def _build_mcr(session: "DiscoverySession", request: "DiscoveryRequest"):
    from ..baselines import McrDiscovery

    return McrDiscovery(session.corpus, session.index, config=session.config)


def _build_josie(session: "DiscoverySession", request: "DiscoveryRequest"):
    from ..baselines import ScrJosieDiscovery

    return ScrJosieDiscovery(session.corpus, config=session.config)


def _build_prefix_tree(session: "DiscoverySession", request: "DiscoveryRequest"):
    from ..baselines import PrefixTreeDiscovery

    return PrefixTreeDiscovery(session.corpus, config=session.config)


def _build_live(session: "DiscoverySession", request: "DiscoveryRequest"):
    # Algorithm 1 over the session's online-mutable LiveIndex: identical
    # dispatch to "mate", but the factory insists on a live index so a
    # request that expects online data can never silently run against a
    # static one.  The LiveIndex pins a snapshot per fetch, so results are
    # consistent mid-compaction.
    from ..core.discovery import MateDiscovery
    from ..exceptions import DiscoveryError
    from ..ingest import LiveIndex

    if not isinstance(session.index, LiveIndex):
        raise DiscoveryError(
            'engine "live" requires the session to own a '
            "repro.ingest.LiveIndex (got "
            f"{type(session.index).__name__})"
        )
    return MateDiscovery(
        session.corpus,
        session.index,
        config=session.config,
        hash_function_name=request.hash_function,
        column_selector=request.column_selector,
        row_filter_mode=request.row_filter_mode,
        use_table_filters=request.use_table_filters,
        sketch_provider=session.sketch_index,
    )


def _build_sql(session: "DiscoverySession", request: "DiscoveryRequest"):
    # Algorithm 1 pushed down into SQLite: the engine builds a private
    # in-memory accelerator from the session index at construction time
    # (sessions cache one engine per request signature).
    from ..engine_sql import SQLPushdownEngine

    return SQLPushdownEngine(
        session.corpus,
        session.index,
        config=session.config,
        hash_function_name=request.hash_function,
        column_selector=request.column_selector,
        row_filter_mode=request.row_filter_mode,
        use_table_filters=request.use_table_filters,
    )


def _register_builtins(registry: EngineRegistry) -> None:
    registry.register(
        "mate",
        _build_mate,
        description="Algorithm 1 over the session index (the paper's system)",
        supports_budget=True,
        supports_planner=True,
        supports_sketch=True,
    )
    registry.register(
        "sharded",
        _build_sharded,
        description="MATE over per-shard corpora with merged top-k "
        "(shard count from ServiceConfig.num_shards)",
    )
    registry.register(
        "scr",
        _build_scr,
        description="single-column retrieval baseline (no super key)",
        supports_budget=True,
        supports_planner=True,
        supports_sketch=True,
    )
    registry.register(
        "mcr",
        _build_mcr,
        description="multi-column retrieval baseline (per-column intersection)",
    )
    registry.register(
        "josie",
        _build_josie,
        description="JOSIE-adapted single-column baseline (builds a set index)",
    )
    registry.register(
        "prefix_tree",
        _build_prefix_tree,
        description="Li et al. prefix-tree related-work baseline",
    )
    registry.register(
        "sql",
        _build_sql,
        description="SQL pushdown: candidate generation + the XASH reject "
        "compiled into an in-memory SQLite accelerator (byte-identical top-k)",
        supports_budget=True,
    )
    registry.register(
        "live",
        _build_live,
        description="Algorithm 1 over the session's online-mutable "
        "LiveIndex (WAL + delta buffer + columnar segments)",
        supports_budget=True,
        supports_planner=True,
        supports_sketch=True,
    )


#: The process-wide default registry every session uses unless given its own.
DEFAULT_REGISTRY = EngineRegistry()
_register_builtins(DEFAULT_REGISTRY)


def available_engines() -> list[str]:
    """Sorted names of the engines in the default registry."""
    return DEFAULT_REGISTRY.names()
