"""Rendering and export of experiment results.

Every experiment module returns an
:class:`~repro.experiments.runner.ExperimentResult`; the helpers below turn
its rows into aligned text tables (mirroring the tables and figures of the
paper), and export them as CSV or JSON for downstream analysis (plotting,
regression tracking across runs).
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .runner import ExperimentResult


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str | None = None
) -> str:
    """Render rows as a fixed-width text table."""
    materialised = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in materialised)
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def result_to_csv(result: "ExperimentResult") -> str:
    """Render an experiment result as CSV text (header row + data rows)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(result.headers)
    for row in result.rows:
        writer.writerow([_format_cell(cell) for cell in row])
    return buffer.getvalue()


def result_to_json(result: "ExperimentResult") -> str:
    """Render an experiment result as a JSON document.

    The document carries the experiment name, the header-keyed rows, and the
    shape notes, so a plotting script has everything it needs in one file.
    """
    payload = {
        "name": result.name,
        "headers": list(result.headers),
        "rows": result.row_dicts(),
        "notes": list(result.notes),
    }
    return json.dumps(payload, indent=2, default=str)


def save_result(
    result: "ExperimentResult", path: str | Path, format: str | None = None
) -> Path:
    """Write an experiment result to ``path`` as text, CSV, or JSON.

    The format is taken from the file suffix (``.csv`` / ``.json``, anything
    else is plain text) unless ``format`` overrides it.
    """
    path = Path(path)
    chosen = (format or path.suffix.lstrip(".")).lower()
    if chosen == "csv":
        content = result_to_csv(result)
    elif chosen == "json":
        content = result_to_json(result)
    else:
        content = result.to_text() + "\n"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")
    return path
