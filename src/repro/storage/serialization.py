"""Plain-file (JSON / CSV) import and export of table corpora and indexes.

Real deployments would ingest web-table dumps; for the reproduction we mostly
move synthetic corpora around, but the functions below give users a simple
way to bring their own tables into the system (one CSV per table, or one JSON
file per corpus) and to inspect generated corpora.

Inverted indexes serialise through a **versioned payload**, format version
2: one struct-of-arrays record per value (three parallel integer columns,
the value's slice of the index block) and the per-row super keys.  A version 1
payload — one ``[table_id, column_index, row_index]`` triple per PL item, the
per-item format of the original reproduction — is refused by name with a
:class:`~repro.exceptions.StorageError`: rebuild the index and save it again.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..datamodel import Row, Table, TableCorpus
from ..exceptions import StorageError
from ..index import InvertedIndex
from .segment_block import SegmentBlock

#: The payload version written and read.
INDEX_FORMAT_VERSION: int = 2


def corpus_to_json(corpus: TableCorpus) -> dict:
    """Return a JSON-serialisable representation of ``corpus``."""
    return {
        "name": corpus.name,
        "tables": [
            {
                "table_id": table.table_id,
                "name": table.name,
                "columns": table.columns,
                "rows": [list(row) for row in table.rows],
            }
            for table in corpus
        ],
    }


def corpus_from_json(payload: dict) -> TableCorpus:
    """Rebuild a corpus from :func:`corpus_to_json` output."""
    try:
        corpus = TableCorpus(name=payload["name"])
        for entry in payload["tables"]:
            corpus.add_table(
                Table(
                    table_id=entry["table_id"],
                    name=entry["name"],
                    columns=list(entry["columns"]),
                    rows=[Row(row) for row in entry["rows"]],
                )
            )
    except (KeyError, TypeError) as exc:
        raise StorageError(f"malformed corpus payload: {exc}") from exc
    return corpus


def save_corpus_json(corpus: TableCorpus, path: str | Path) -> Path:
    """Write ``corpus`` to a JSON file and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(corpus_to_json(corpus), handle)
    return path


def load_corpus_json(path: str | Path) -> TableCorpus:
    """Read a corpus from a JSON file written by :func:`save_corpus_json`."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"corpus file does not exist: {path}")
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return corpus_from_json(payload)


def index_to_payload(index: InvertedIndex) -> dict:
    """Return a JSON-serialisable, versioned representation of ``index``.

    Format version 2: struct-of-arrays posting columns per value, read
    straight from the index block (no view is memoised per value).  Super
    keys are stored as hex strings because they can exceed 64 bits.
    """
    return {
        "format_version": INDEX_FORMAT_VERSION,
        "layout": "columnar",
        "hash_function": index.hash_function_name,
        "hash_size": index.hash_size,
        "postings": {
            value: {
                "table_ids": table_ids.tolist(),
                "column_indexes": column_indexes.tolist(),
                "row_indexes": row_indexes.tolist(),
            }
            for value, table_ids, column_indexes, row_indexes in (
                index.block.postings()
            )
        },
        "super_keys": [
            [table_id, row_index, format(super_key, "x")]
            for table_id, row_index, super_key in index.iter_super_keys()
        ],
    }


def index_from_payload(payload: dict) -> InvertedIndex:
    """Rebuild an inverted index from :func:`index_to_payload` output.

    Only format version 2 is read.  A version 1 payload (or one from before
    the version key existed) and any other layout raise
    :class:`~repro.exceptions.StorageError` naming what was found, as do
    missing fields, posting columns of unequal lengths and bad hex keys.
    """
    try:
        version = int(payload.get("format_version", 1))
        if version == 1:
            raise StorageError(
                "index payload format version 1 (one record per PL item, the "
                "legacy layout) is no longer read; rebuild the index and save "
                "it again"
            )
        if version != INDEX_FORMAT_VERSION:
            raise StorageError(
                f"unsupported index payload format version {version} "
                f"(expected {INDEX_FORMAT_VERSION})"
            )
        layout = payload.get("layout", "columnar")
        if layout != "columnar":
            raise StorageError(
                f"index payload layout {layout!r} is not read (only "
                "'columnar'); rebuild the index and save it again"
            )
        block = SegmentBlock.from_postings(
            payload["hash_function"],
            int(payload["hash_size"]),
            (
                (
                    value,
                    columns["table_ids"],
                    columns["column_indexes"],
                    columns["row_indexes"],
                )
                for value, columns in payload["postings"].items()
            ),
            (
                (table_id, row_index, int(super_key_hex, 16))
                for table_id, row_index, super_key_hex in payload["super_keys"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StorageError(f"malformed index payload: {exc}") from exc
    return InvertedIndex(block)


def save_index_json(index: InvertedIndex, path: str | Path) -> Path:
    """Write ``index`` to a JSON file (versioned payload) and return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(index_to_payload(index), handle)
    return path


def load_index_json(path: str | Path) -> InvertedIndex:
    """Read an index from a JSON file written by :func:`save_index_json`."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"index file does not exist: {path}")
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return index_from_payload(payload)


def table_to_csv(table: Table, path: str | Path) -> Path:
    """Write a single table to a CSV file (header row + data rows)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow(list(row))
    return path


def table_from_csv(table_id: int, path: str | Path, name: str | None = None) -> Table:
    """Load a single table from a CSV file (first row = column names)."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"CSV file does not exist: {path}")
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = list(reader)
    if not rows:
        raise StorageError(f"CSV file {path} is empty")
    columns = rows[0]
    data = [Row(row) for row in rows[1:]]
    return Table(
        table_id=table_id, name=name or path.stem, columns=columns, rows=data
    )


def load_corpus_from_csv_directory(directory: str | Path, name: str = "csv-corpus") -> TableCorpus:
    """Build a corpus from every ``*.csv`` file in a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise StorageError(f"not a directory: {directory}")
    corpus = TableCorpus(name=name)
    for table_id, csv_path in enumerate(sorted(directory.glob("*.csv"))):
        corpus.add_table(table_from_csv(table_id, csv_path))
    return corpus
