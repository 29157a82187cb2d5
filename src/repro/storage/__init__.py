"""Persistence backends and plain-file (de)serialisation."""

from .backend import StorageBackend
from .memory import InMemoryBackend
from .paged import (
    SEGMENT_FORMAT_VERSION,
    SEGMENT_MAGIC,
    SEGMENT_SUFFIX,
    FetchAccounting,
    FetchCostModel,
    PagedPostingStore,
    load_segment,
    reopen_segment,
    write_segment,
)
from .serialization import (
    INDEX_FORMAT_VERSION,
    corpus_from_json,
    corpus_to_json,
    index_from_payload,
    index_to_payload,
    load_corpus_from_csv_directory,
    load_corpus_json,
    load_index_json,
    save_corpus_json,
    save_index_json,
    table_from_csv,
    table_to_csv,
)
from .sqlite import SQLiteBackend

__all__ = [
    "FetchAccounting",
    "FetchCostModel",
    "INDEX_FORMAT_VERSION",
    "InMemoryBackend",
    "PagedPostingStore",
    "SEGMENT_FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "SEGMENT_SUFFIX",
    "SQLiteBackend",
    "StorageBackend",
    "load_segment",
    "reopen_segment",
    "write_segment",
    "corpus_from_json",
    "corpus_to_json",
    "index_from_payload",
    "index_to_payload",
    "load_corpus_from_csv_directory",
    "load_corpus_json",
    "load_index_json",
    "save_corpus_json",
    "save_index_json",
    "table_from_csv",
    "table_to_csv",
]
