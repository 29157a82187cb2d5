"""The extended single-attribute inverted index with per-row super keys:
one immutable CSR block, served through memoised per-value fetch blocks
(corpus edits go through a :class:`repro.ingest.LiveIndex`)."""

from .builder import IndexBuildReport, IndexBuilder, build_index
from .columnar import FetchBlock
from .inverted import InvertedIndex
from .kernels import entry_coverage
from .statistics import (
    IndexStorageReport,
    JOSIE_BYTES_PER_ENTRY,
    SCR_BYTES_PER_ENTRY,
    bits_to_bytes,
    storage_report,
)

__all__ = [
    "FetchBlock",
    "IndexBuildReport",
    "entry_coverage",
    "IndexBuilder",
    "IndexStorageReport",
    "InvertedIndex",
    "JOSIE_BYTES_PER_ENTRY",
    "SCR_BYTES_PER_ENTRY",
    "bits_to_bytes",
    "build_index",
    "storage_report",
]
