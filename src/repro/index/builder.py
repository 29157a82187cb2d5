"""Offline index construction (the "Indexing step" of Figure 2).

:class:`IndexBuilder` emits one PL item per non-missing cell value and one
super key per row, and records the timing/size statistics reported in
Section 7.1 ("Index generation").  A bulk build has two lanes that produce
the same index content: the array passes of :mod:`repro.index.bulk` (columnar
layout with the numpy kernel active — the rule
:func:`~repro.storage.segment_block.flatten_index` selects its lanes by) and
the per-cell :meth:`IndexBuilder.add_table` loop (everything else), which is
also the write path of index maintenance and of the ingest buffer's loop
lane.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from typing import TYPE_CHECKING, Iterable

from ..config import MateConfig
from ..datamodel import MISSING, Table, TableCorpus
from ..hashing import SuperKeyGenerator
from .bulk import build_block
from .inverted import InvertedIndex
from .kernels import active_kernel

if TYPE_CHECKING:  # pragma: no cover - imported for annotations only
    from ..sketch import SketchIndex, SketchIndexConfig


@dataclass(frozen=True)
class IndexBuildReport:
    """Summary of one offline index build."""

    hash_function: str
    hash_size: int
    num_tables: int
    num_rows: int
    num_posting_items: int
    num_distinct_values: int
    build_seconds: float

    def as_dict(self) -> dict[str, str | float]:
        """Return the report as a plain dictionary (for reporting)."""
        return {
            "hash_function": self.hash_function,
            "hash_size": self.hash_size,
            "tables": self.num_tables,
            "rows": self.num_rows,
            "posting_items": self.num_posting_items,
            "distinct_values": self.num_distinct_values,
            "build_seconds": self.build_seconds,
        }


class IndexBuilder:
    """Builds the extended inverted index for a corpus."""

    def __init__(
        self,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        super_key_generator: SuperKeyGenerator | None = None,
        layout: str | None = None,
        sketch_config: "SketchIndexConfig | None" = None,
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        #: Posting layout of built indexes; defaults to the configured one
        #: (``"columnar"`` unless overridden), so postings land directly in
        #: the packed arrays.
        self.layout = layout or self.config.index_layout
        self.super_key_generator = super_key_generator or SuperKeyGenerator.from_name(
            hash_function_name, self.config
        )
        #: MinHash-LSH parameters of :meth:`build_with_sketches`; ``None``
        #: uses :data:`repro.sketch.DEFAULT_SKETCH_CONFIG`.
        self.sketch_config = sketch_config
        self.last_report: IndexBuildReport | None = None
        #: The sketch store of the last :meth:`build_with_sketches` call.
        self.last_sketch_index: "SketchIndex | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, corpus: TableCorpus) -> InvertedIndex:
        """Build the index for every table in ``corpus``."""
        return self._build(corpus, None)

    def build_with_sketches(
        self, corpus: TableCorpus
    ) -> "tuple[InvertedIndex, SketchIndex]":
        """Build the inverted index *and* its MinHash-LSH sketch store.

        The offline analogue of the live index's incrementally-fresh
        sketches: one build emits both the exact postings and the
        per-column :class:`~repro.sketch.minhash.ColumnSketch` entries,
        so an offline build can persist the pair
        (:meth:`~repro.sketch.index.SketchIndex.save`) next to its
        segments and serve sketch-mode requests without any rebuild.
        """
        from ..sketch import SketchIndex

        sketch_index = SketchIndex(self.sketch_config)
        index = self._build(corpus, sketch_index)
        self.last_sketch_index = sketch_index
        return index, sketch_index

    def _build(
        self, corpus: TableCorpus, sketch_index: "SketchIndex | None"
    ) -> InvertedIndex:
        """One bulk build (see the module docstring for the two lanes); the
        built index accepts every mutation either way."""
        started = time.perf_counter()
        arrays = self.layout == "columnar" and active_kernel() == "numpy"
        if arrays:
            # Imported here: ``repro.storage`` itself imports ``repro.index``.
            from ..storage.paged import MappedSegmentIndex

            index: InvertedIndex = MappedSegmentIndex(
                build_block(
                    corpus, self.super_key_generator, self.hash_function_name
                ),
                thaws=True,
            )
        else:
            index = InvertedIndex(
                hash_function_name=self.hash_function_name,
                hash_size=self.config.hash_size,
                layout=self.layout,
            )
        if not arrays or sketch_index is not None:
            for table in corpus:
                if not arrays:
                    self.add_table(index, table)
                if sketch_index is not None:
                    sketch_index.add_table(table)
        self.last_report = IndexBuildReport(
            hash_function=self.hash_function_name,
            hash_size=self.config.hash_size,
            num_tables=len(corpus),
            num_rows=index.num_rows(),
            num_posting_items=index.num_posting_items(),
            num_distinct_values=len(index),
            build_seconds=time.perf_counter() - started,
        )
        return index

    def add_table(
        self,
        index: InvertedIndex,
        table: Table,
        super_keys: Iterable[int] | None = None,
    ) -> int:
        """Index a single table; returns the number of indexed rows.

        On the columnar layout each ``add_posting`` appends straight into the
        value's packed arrays — the build materialises no per-item records.
        ``super_keys`` are the rows' super keys when the caller hashed them
        already (the ingest buffer hashes a table before it logs it).
        """
        table_id = table.table_id
        set_super_key = index.set_super_key
        add_posting = index.add_posting
        if super_keys is None:
            super_keys = map(self.super_key_generator.row_super_key, table.rows)
        for row_index, (row, super_key) in enumerate(zip(table.rows, super_keys)):
            set_super_key(table_id, row_index, super_key)
            for column_index, value in enumerate(row):
                if value == MISSING:
                    continue
                add_posting(value, table_id, column_index, row_index)
        return table.num_rows


def build_index(
    corpus: TableCorpus,
    config: MateConfig | None = None,
    hash_function_name: str = "xash",
    layout: str | None = None,
) -> InvertedIndex:
    """Convenience wrapper: build an index for ``corpus`` in one call."""
    return IndexBuilder(
        config=config, hash_function_name=hash_function_name, layout=layout
    ).build(corpus)
