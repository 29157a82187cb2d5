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
"""

from __future__ import annotations

from dataclasses import dataclass

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
