#!/usr/bin/env python
"""Docs completeness check (run by CI).

Asserts that ``README.md`` and ``docs/ARCHITECTURE.md`` exist, that each of
them mentions every subpackage of ``src/repro/`` by name, and that the
load-bearing sections listed in :data:`REQUIRED_SECTIONS` are present — so
the documentation cannot silently fall behind the package layout or lose a
section a subsystem depends on being documented.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "docs/ARCHITECTURE.md")

#: Headings (exact substrings) each document must contain.
REQUIRED_SECTIONS: dict[str, tuple[str, ...]] = {
    "docs/ARCHITECTURE.md": (
        "## Query planning",
        "## Sketch tier",
        "## Vectorized execution",
        "## Process-parallel serving",
        "## SQL pushdown",
        "## Telemetry",
        "## Benchmark",
    ),
    "README.md": (
        "--explain",
        "Vectorized prefilter",
        "Mmap-backed segments",
        "Approximate tier",
        "## Serving",
        "/metrics",
        "--trace-out",
        "SQL pushdown",
        "### Benchmark",
    ),
}


def subpackages() -> list[str]:
    """Names of all repro subpackages (directories with an __init__.py)."""
    package_root = REPO_ROOT / "src" / "repro"
    return sorted(
        entry.name
        for entry in package_root.iterdir()
        if entry.is_dir() and (entry / "__init__.py").is_file()
    )


def main() -> int:
    packages = subpackages()
    if not packages:
        print("error: no subpackages found under src/repro/", file=sys.stderr)
        return 1
    failures = []
    for doc in DOCS:
        path = REPO_ROOT / doc
        if not path.is_file():
            failures.append(f"{doc}: missing")
            continue
        text = path.read_text(encoding="utf-8")
        missing = [name for name in packages if f"repro.{name}" not in text]
        if missing:
            failures.append(f"{doc}: does not mention {', '.join(missing)}")
        absent = [
            section
            for section in REQUIRED_SECTIONS.get(doc, ())
            if section not in text
        ]
        if absent:
            failures.append(f"{doc}: missing required section {', '.join(absent)}")
    if failures:
        for failure in failures:
            print(f"error: {failure}", file=sys.stderr)
        return 1
    print(f"docs OK: {', '.join(DOCS)} mention all {len(packages)} subpackages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
