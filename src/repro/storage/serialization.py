"""Plain-file (JSON / CSV) import and export of table corpora.

Real deployments would ingest web-table dumps; for the reproduction we mostly
move synthetic corpora around, but the functions below give users a simple
way to bring their own tables into the system (one CSV per table, or one JSON
file per corpus) and to inspect generated corpora.  A file these readers
cannot decode — not JSON, not UTF-8, a directory — is refused with a
:class:`~repro.exceptions.StorageError` naming it.  Indexes persist as
``.seg`` segments (:mod:`repro.storage.paged`), not through this module.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..datamodel import Row, Table, TableCorpus
from ..exceptions import StorageError


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
    # One json.dumps: json.dump streams through the pure-Python encoder.
    path.write_text(json.dumps(corpus_to_json(corpus)), encoding="utf-8")
    return path


def load_corpus_json(path: str | Path) -> TableCorpus:
    """Read a corpus from a JSON file written by :func:`save_corpus_json`."""
    path = Path(path)
    if not path.exists():
        raise StorageError(f"corpus file does not exist: {path}")
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot read corpus file {path}: {exc}") from exc
    return corpus_from_json(payload)


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
    """Load a single table from a CSV file (first row = column names).

    Blank lines hold no cells and are skipped.  A repeated column name or a
    row whose cell count differs from the header's is refused with a
    :class:`StorageError` naming the file and the line.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"CSV file does not exist: {path}")
    try:
        with path.open("r", encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle)
            rows = [(reader.line_num, row) for row in reader if row]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise StorageError(f"cannot read CSV file {path}: {exc}") from exc
    if not rows:
        raise StorageError(f"CSV file {path} is empty")
    columns = rows[0][1]
    repeated = sorted({column for column in columns if columns.count(column) > 1})
    if repeated:
        raise StorageError(
            f"CSV file {path}: the header repeats column name(s) {repeated}"
        )
    for line, row in rows[1:]:
        if len(row) != len(columns):
            raise StorageError(
                f"CSV file {path}: line {line} has {len(row)} cells, the "
                f"header has {len(columns)}"
            )
    data = [Row(row) for _line, row in rows[1:]]
    return Table(
        table_id=table_id, name=name or path.stem, columns=columns, rows=data
    )
