"""Offline index construction (the "Indexing step" of Figure 2).

:class:`IndexBuilder` emits one PL item per non-missing cell value and one
super key per row, and records the timing/size statistics reported in
Section 7.1 ("Index generation").  A build is the array passes of
:mod:`repro.index.bulk` into one CSR block, served by an
:class:`~repro.index.inverted.InvertedIndex`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..config import MateConfig
from ..datamodel import TableCorpus
from ..hashing import SuperKeyGenerator
from .bulk import encode_tables, encoded_block
from .inverted import InvertedIndex

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


class IndexBuilder:
    """Builds the extended inverted index for a corpus."""

    def __init__(
        self,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
        super_key_generator: SuperKeyGenerator | None = None,
        sketch_config: "SketchIndexConfig | None" = None,
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
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
        segments and serve sketch-mode requests without any rebuild.  The
        whole corpus is signed in one pass from the build's own dictionary
        pass: no cell is interned twice.
        """
        from ..sketch import SketchIndex

        sketch_index = SketchIndex(self.sketch_config)
        index = self._build(corpus, sketch_index)
        self.last_sketch_index = sketch_index
        return index, sketch_index

    def _build(
        self, corpus: TableCorpus, sketch_index: "SketchIndex | None"
    ) -> InvertedIndex:
        """One bulk build: the index serves one CSR block."""
        started = time.perf_counter()
        tables = list(corpus)
        encoded = encode_tables(tables)
        index = InvertedIndex(
            encoded_block(encoded, self.super_key_generator, self.hash_function_name)
        )
        if sketch_index is not None:
            sketch_index.add_tables(tables, encoded)
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


def build_index(
    corpus: TableCorpus,
    config: MateConfig | None = None,
    hash_function_name: str = "xash",
) -> InvertedIndex:
    """Convenience wrapper: build an index for ``corpus`` in one call."""
    builder = IndexBuilder(config=config, hash_function_name=hash_function_name)
    return builder.build(corpus)
