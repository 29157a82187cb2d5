"""Table-level and row-level filtering (Sections 6.2 and 6.3).

Table filtering applies two coarse-grained pruning rules, both only active
once ``k`` joinable tables have been seen:

* **Rule 1** — a candidate table whose total PL-item count ``L_t`` cannot beat
  the worst top-k joinability ``j_k`` is dropped; because candidates are
  processed in decreasing ``L_t`` order, the whole scan stops.
* **Rule 2** — while scanning a table's PL items, if even a perfect outcome of
  the remaining rows (``L_t - r_checked + r_match``) cannot beat ``j_k`` the
  table is abandoned mid-way.

Row filtering checks, per candidate row, whether the row super key covers the
aggregated hash of the query key value combination (line 18 of Algorithm 1).
Three modes are supported so that the baselines and the Figure 5 oracle reuse
the same engine:

* ``superkey`` — the real MATE filter,
* ``none``     — pass everything (the SCR baseline: exact verification only),
* ``oracle``   — an ideal filter with zero false positives (the "Ideal
  system" bar of Figure 5), implemented via exact containment.

The engine runs every mode on request-level arrays
(:mod:`repro.index.batch`: the packed-key kernels of
:mod:`repro.index.kernels` for ``superkey``, the comparison half of the
verification pass for ``oracle``).  :meth:`RowFilter.passes`,
:func:`should_abandon_table` and :meth:`covers_with_short_circuit
<repro.hashing.SuperKeyGenerator.covers_with_short_circuit>` are the
per-row statement of the same rules, kept for the verbatim reference loop
every differential suite compares the engine with
(``tests/helpers.legacy_discover``).
"""

from __future__ import annotations

from typing import Sequence

from ..exceptions import DiscoveryError
from ..hashing import SuperKeyGenerator
from ..metrics import DiscoveryCounters
from .joinability import row_contains_key
from .topk import TopKHeap

#: Valid row-filter modes.
ROW_FILTER_MODES: tuple[str, ...] = ("superkey", "none", "oracle")


def should_prune_table(posting_count: int, topk: TopKHeap) -> bool:
    """Table-filtering rule 1: ``L_t <= j_k`` once the top-k is full."""
    return topk.is_full and posting_count <= topk.min_joinability()


def should_abandon_table(
    posting_count: int, rows_checked: int, rows_matched: int, topk: TopKHeap
) -> bool:
    """Table-filtering rule 2: ``L_t - r_checked + r_match <= j_k``."""
    if not topk.is_full:
        return False
    optimistic = posting_count - rows_checked + rows_matched
    return optimistic <= topk.min_joinability()


class RowFilter:
    """Row-level pruning via super-key subsumption (or a baseline mode)."""

    def __init__(
        self,
        super_key_generator: SuperKeyGenerator,
        mode: str = "superkey",
    ):
        if mode not in ROW_FILTER_MODES:
            raise DiscoveryError(
                f"unknown row-filter mode {mode!r}; expected one of {ROW_FILTER_MODES}"
            )
        self.super_key_generator = super_key_generator
        self.mode = mode

    def passes(
        self,
        row_super_key: int,
        key_super_key: int,
        row: Sequence[str],
        key_tuple: tuple[str, ...],
        counters: DiscoveryCounters,
    ) -> bool:
        """Return whether the candidate row survives filtering for this key."""
        if self.mode == "none":
            return True
        if self.mode == "oracle":
            # Ideal filter: zero false positives by construction.
            return row_contains_key(row, key_tuple)
        counters.superkey_checks += 1
        covered, short_circuited = self.super_key_generator.covers_with_short_circuit(
            row_super_key, key_super_key
        )
        if short_circuited:
            counters.short_circuit_hits += 1
        return covered
