"""The persisted index format and plain-file (de)serialisation.

An index persists one way: as binary ``.seg`` segments
(:mod:`repro.storage.paged`, one CSR :class:`~repro.storage.segment_block.SegmentBlock`
per file), which a live-index directory (:class:`repro.ingest.LiveIndex`:
``manifest.json`` + ``.seg`` + ``.sk`` + WAL + ``corpus.json``) stacks and
the process pool maps.  :mod:`repro.storage.serialization` moves corpora
and single tables in and out of JSON and CSV files.
"""

from .paged import (
    SEGMENT_FORMAT_VERSION,
    SEGMENT_MAGIC,
    SEGMENT_SUFFIX,
    load_segment,
    reopen_segment,
    write_segment,
)
from .serialization import (
    corpus_from_json,
    corpus_to_json,
    load_corpus_json,
    save_corpus_json,
    table_from_csv,
    table_to_csv,
)

__all__ = [
    "SEGMENT_FORMAT_VERSION",
    "SEGMENT_MAGIC",
    "SEGMENT_SUFFIX",
    "load_segment",
    "reopen_segment",
    "write_segment",
    "corpus_from_json",
    "corpus_to_json",
    "load_corpus_json",
    "save_corpus_json",
    "table_from_csv",
    "table_to_csv",
]
