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

from ..config import MateConfig
from ..datamodel import TableCorpus
from ..hashing import SuperKeyGenerator
from .bulk import encode_tables, encoded_block
from .inverted import InvertedIndex


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
    ):
        self.config = config or MateConfig()
        self.hash_function_name = hash_function_name
        self.super_key_generator = super_key_generator or SuperKeyGenerator.from_name(
            hash_function_name, self.config
        )
        self.last_report: IndexBuildReport | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, corpus: TableCorpus) -> InvertedIndex:
        """Build the index for every table in ``corpus``: one bulk build,
        served from one CSR block."""
        started = time.perf_counter()
        encoded = encode_tables(list(corpus))
        index = InvertedIndex(
            encoded_block(encoded, self.super_key_generator, self.hash_function_name)
        )
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
