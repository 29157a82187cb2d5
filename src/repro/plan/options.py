"""Planner knobs carried per request (:attr:`DiscoveryRequest.planner`).

:class:`PlannerOptions` is deliberately tiny and frozen: it travels on the
immutable :class:`~repro.api.request.DiscoveryRequest`, is excluded from the
engine-cache signature (planning is a per-run decision, not engine
configuration), and defaults to the legacy behaviour — seed the run with the
request's column selector — so an unconfigured request is byte-identical to
the pre-planner engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ConfigurationError

#: Seed-selection modes of the planner.
#:
#: * ``selector`` — the request's classic column selector picks the seed
#:   (byte-identical to the pre-planner engine; the default);
#: * ``cost``     — the key column whose probe values hold the fewest
#:   postings, counted exactly off the index
#:   (:func:`repro.core.column_selection.probed_postings`), seeds the run;
#: * ``sketch``   — ``selector`` seeding plus the approximate candidate
#:   tier: the MinHash-LSH ``SketchPrune`` stage (:mod:`repro.sketch`)
#:   shrinks the fetch universe ahead of candidate generation, governed by
#:   the request's :class:`~repro.sketch.SketchOptions`.
PLANNER_MODES: tuple[str, ...] = ("selector", "cost", "sketch")


@dataclass(frozen=True)
class PlannerOptions:
    """Per-request planning knobs.

    Parameters
    ----------
    mode:
        One of :data:`PLANNER_MODES`.
    """

    mode: str = "selector"

    def __post_init__(self) -> None:
        if self.mode == "adaptive":
            raise ConfigurationError(
                "planner mode 'adaptive' was removed: mode 'cost' counts every "
                "key column's probed postings exactly, so there is no "
                "estimate to re-plan from; use mode='cost'"
            )
        if self.mode not in PLANNER_MODES:
            raise ConfigurationError(
                f"unknown planner mode {self.mode!r}; "
                f"expected one of {PLANNER_MODES}"
            )


#: The default options every request starts with (legacy behaviour).
DEFAULT_PLANNER_OPTIONS = PlannerOptions()
