"""Index size accounting (the "Index generation" paragraph of Section 7.1).

The paper reports the additional storage the super keys require, contrasting
two layouts:

* **per-cell** storage — a super key attached to every PL item
  (``num_posting_items * hash_size`` bits), the layout the reference system
  uses inside the column store, and
* **per-row** storage — one super key per distinct row
  (``num_rows * hash_size`` bits), the space-efficient variant that needs an
  extra join between super keys and PLs at query time.

The per-row layout is the one this reproduction stores: a ``.seg`` segment
(:mod:`repro.storage.segment_block`) keeps each key once, in its row table,
and a posting names its row by ordinal; the join is the gather
:class:`~repro.index.inverted.InvertedIndex` runs at a value's first fetch
(``row_keys[ordinals]``), memoised with the value's view.  The per-cell
numbers below are what the reference layout would cost on the same index.

It also compares against the extra storage a JOSIE-style set index needs.
This module computes those numbers for any built index so the index-generation
benchmark can print the same rows as the paper.

Beyond storage accounting, the module is the statistics provider of the
query planner (:mod:`repro.plan`): :func:`estimate_posting_volume` predicts
how many PL items a set of probe values would fetch from a bounded sample of
posting-list lengths, so seed-column selection stays O(sample) instead of
touching every probe value's posting list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .inverted import InvertedIndex

#: Rough per-entry overhead (in bytes) of a JOSIE set-index entry: a value id,
#: a set id and a position, stored as three 64-bit integers.  Used only for
#: the relative comparison in the index-generation experiment.
JOSIE_BYTES_PER_ENTRY: int = 24

#: Rough per-entry overhead (in bytes) of a plain SCR posting:
#: table id + column id + row id as three 64-bit integers.
SCR_BYTES_PER_ENTRY: int = 24


def bits_to_bytes(bits: int) -> int:
    """Convert a bit count to bytes, rounding up."""
    return (bits + 7) // 8


@dataclass(frozen=True)
class IndexStorageReport:
    """Storage footprint of one built index, in bytes."""

    hash_size: int
    num_posting_items: int
    num_rows: int
    num_distinct_values: int
    posting_bytes: int
    super_key_bytes_per_cell: int
    super_key_bytes_per_row: int
    josie_extra_bytes: int


def sample_positions(count: int, sample_size: int) -> list[int]:
    """Evenly spaced positions for a deterministic sample of ``count`` items.

    Returns all positions when ``count <= sample_size``.  Positions are
    picked with a fractional stride (``position i -> floor(i * count /
    sample_size)``) so the sample spans the whole range — an integer stride
    would never reach the tail and bias estimates toward the head of the
    probe list.  The same ``(count, sample_size)`` pair always samples the
    same positions, so planner estimates are reproducible run over run.
    """
    if count <= 0:
        return []
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    if count <= sample_size:
        return list(range(count))
    return [position * count // sample_size for position in range(sample_size)]


@dataclass(frozen=True)
class PostingVolumeEstimate:
    """Predicted posting-list volume for a set of probe values.

    ``exact`` is true when every value was measured (no extrapolation), which
    happens whenever the value count is within the sample budget.
    """

    #: Number of probe values the estimate covers.
    values: int
    #: Number of values whose posting-list length was actually measured.
    sampled: int
    #: Predicted total PL items across all ``values``.
    estimated_postings: float
    #: Whether the estimate is an exact count rather than an extrapolation.
    exact: bool

    def scaled(self, values_done: int) -> float:
        """The predicted volume for the first ``values_done`` probe values."""
        if self.values <= 0:
            return 0.0
        return self.estimated_postings * min(values_done, self.values) / self.values


def estimate_posting_volume(
    index, values: Sequence[str], sample_size: int = 32
) -> PostingVolumeEstimate:
    """Estimate how many PL items fetching ``values`` would return.

    Measures the posting-list length of an evenly spaced sample of at most
    ``sample_size`` values and extrapolates the mean to the full value list.
    Works against every index surface of the repository (monolithic, sharded,
    caching, live) — length lookups are metadata reads, no postings move.
    """
    positions = sample_positions(len(values), sample_size)
    if not positions:
        return PostingVolumeEstimate(
            values=0, sampled=0, estimated_postings=0.0, exact=True
        )
    sampled_total = sum(
        index.posting_lengths([values[position] for position in positions])
    )
    exact = len(positions) == len(values)
    if exact:
        estimated = float(sampled_total)
    else:
        estimated = sampled_total / len(positions) * len(values)
    return PostingVolumeEstimate(
        values=len(values),
        sampled=len(positions),
        estimated_postings=estimated,
        exact=exact,
    )


def storage_report(index: InvertedIndex) -> IndexStorageReport:
    """Compute the storage footprint of ``index`` under both layouts."""
    num_posting_items = index.num_posting_items()
    num_rows = index.num_rows()
    return IndexStorageReport(
        hash_size=index.hash_size,
        num_posting_items=num_posting_items,
        num_rows=num_rows,
        num_distinct_values=len(index),
        posting_bytes=num_posting_items * SCR_BYTES_PER_ENTRY,
        super_key_bytes_per_cell=bits_to_bytes(num_posting_items * index.hash_size),
        super_key_bytes_per_row=bits_to_bytes(num_rows * index.hash_size),
        josie_extra_bytes=num_posting_items * JOSIE_BYTES_PER_ENTRY,
    )
