"""The extended single-attribute inverted index with per-row super keys:
one CSR block, served (optionally behind the LRU cache of
:mod:`repro.index.cache`) and edited by rewrites."""

from .builder import IndexBuildReport, IndexBuilder, build_index
from .columnar import (
    ColumnarPostingList,
    FetchBlock,
    unpack_super_keys,
)
from .inverted import InvertedIndex
from .kernels import entry_coverage
from .maintenance import IndexMaintainer
from .posting import FetchedItem, PostingListItem
from .statistics import (
    IndexStorageReport,
    JOSIE_BYTES_PER_ENTRY,
    PostingVolumeEstimate,
    SCR_BYTES_PER_ENTRY,
    bits_to_bytes,
    estimate_posting_volume,
    sample_positions,
    storage_report,
)

__all__ = [
    "ColumnarPostingList",
    "FetchBlock",
    "FetchedItem",
    "IndexBuildReport",
    "entry_coverage",
    "unpack_super_keys",
    "IndexBuilder",
    "IndexMaintainer",
    "IndexStorageReport",
    "InvertedIndex",
    "JOSIE_BYTES_PER_ENTRY",
    "PostingListItem",
    "PostingVolumeEstimate",
    "SCR_BYTES_PER_ENTRY",
    "bits_to_bytes",
    "build_index",
    "estimate_posting_volume",
    "sample_positions",
    "storage_report",
]
