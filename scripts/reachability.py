#!/usr/bin/env python3
"""Which ``src/`` code do the repository's entry points execute?

Copies the repository's files (``git ls-files``: tracked plus untracked,
not-ignored ones) into a temporary directory, drops a ``sitecustomize.py``
into the copy's ``src/`` and runs every entry point there with
``PYTHONPATH=src``.  The hook records ``(file, line)`` for every frame under
``src/repro`` through :func:`sys.settrace` and :func:`threading.settrace`,
in every process: the bench's ``repro serve`` server (``bench_e2e``'s
``http_serve`` resets the server's ``PYTHONPATH`` to ``src``, which is why
the hook lives there) and the process pool's workers (which leave through
``os._exit``, so the hook also dumps when
``multiprocessing.process.BaseProcess._bootstrap`` returns).

Entry points, run one after another:

* ``bench_e2e/run.py --workload all --smoke --seconds 2 --trace 1``;
* every ``examples/*.py``;
* ``scripts/{serve,trace,plan_explain,wal_crash}_smoke.py``;
* ``tests/test_cli.py``;
* the paper-figure benches (``benchmarks/bench_*.py``) at
  ``MATE_BENCH_CORPUS_SCALE=0.15`` with ``--benchmark-disable``
  (pytest-benchmark calls ``sys.settrace(None)`` around a timed call, so
  without the flag those lines would go unrecorded).

A function-body statement is a statement inside a function, owned by its
innermost function (docstrings and ``global`` / ``nonlocal`` excluded); it
counts as executed when a line event fired on one of its lines (a compound
statement: on its header).  A code object stops being traced once all its
lines were seen, or once 1,000 calls in a row reached no new line.  The
report, ``REACHABILITY.json`` at the repository root, gives executed and
total function-body statements per file, the functions none of whose
statements ran, and each entry point's exit code, run time and share.  It
is a probe for deciding what to delete: a share that moves does not fail
it, but an entry point that exits non-zero does (exit status 1, after the
report is written).  The paper-figure benches are the exception, because
``bench_scaling.py`` asserts a wall-clock ratio that does not hold at that
scale.

"Never run" means never run *at these scales*, so a function taken from
that list for deletion also needs a grep for its call sites.

Usage (stdlib only; ~36 minutes on a 2-core machine, ~34 of them the
paper-figure benches, whose pure-Python hashes dominate under tracing)::

    python3 scripts/reachability.py
"""

from __future__ import annotations

import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Installed as ``src/sitecustomize.py`` in the copy.  Dumps go to
#: ``<copy>/.reach/<pid>-<ns>.json`` (written whole, then renamed), found
#: from the hook's own path.
HOOK = r'''
import atexit
import json
import os
import sys
import threading
import time

_SRC = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.join(_SRC, "repro") + os.sep
_OUT = os.path.join(os.path.dirname(_SRC), ".reach")
#: A code object whose last this-many calls reached no new line stops
#: being traced, so a hot loop (SimHash's per-bit loop in the paper
#: benches) costs minutes, not hours; a line first reached after that
#: goes unrecorded.
_QUIET_CALLS = 1000
#: code object -> lines a line event fired on / lines not yet seen /
#: calls since a new line; a code object in ``_done`` is not traced.
_seen = {}
_pending = {}
_quiet = {}
_done = set()


def _local(frame, event, arg):
    if event == "line":
        code = frame.f_code
        line = frame.f_lineno
        _seen[code].add(line)
        pending = _pending[code]
        if line in pending:
            pending.discard(line)
            _quiet[code] = 0
            if not pending:
                _done.add(code)
                frame.f_trace = None
                return None
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if code in _done:
        return None
    if code in _pending:
        _quiet[code] += 1
        if _quiet[code] > _QUIET_CALLS:
            _done.add(code)
            return None
        return _local
    if not code.co_filename.startswith(_ROOT):
        _done.add(code)
        return None
    # The def line holds only the frame's set-up: no line event.
    _pending[code] = {
        line for _, _, line in code.co_lines()
        if line is not None and line != code.co_firstlineno
    }
    _seen[code] = set()
    _quiet[code] = 0
    return _local


def _dump():
    # Stop tracing this thread first: a weakref callback into src/repro that
    # the dump's own allocations set off would add to _seen mid-copy.
    sys.settrace(None)
    threading.settrace(None)
    while True:
        try:
            seen = [(code, tuple(lines)) for code, lines in list(_seen.items())]
            break
        except RuntimeError:  # a thread still running added a code or a line
            continue
    hits = {
        (code.co_filename[len(_ROOT):], line)
        for code, lines in seen for line in lines
    }
    if not hits:
        return
    os.makedirs(_OUT, exist_ok=True)
    path = os.path.join(_OUT, f"{os.getpid()}-{time.monotonic_ns()}")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(sorted(hits), handle)
    os.replace(path + ".tmp", path + ".json")


def _wrap_bootstrap():
    import multiprocessing.process as process

    bootstrap = process.BaseProcess._bootstrap

    def _bootstrap(self, *args, **kwargs):
        try:
            return bootstrap(self, *args, **kwargs)
        finally:
            _dump()

    process.BaseProcess._bootstrap = _bootstrap


_wrap_bootstrap()
atexit.register(_dump)
threading.settrace(_global)
sys.settrace(_global)
'''

#: Name of the paper-figure bench entry point (reported separately).
PAPER_BENCHES = "paper-figure benches"


def entry_points(copy: Path) -> list[tuple[str, list[str], dict[str, str]]]:
    """``(label, argv, extra env)`` of every entry point, in run order."""
    python = sys.executable
    points = [(
        "bench_e2e",
        [python, "bench_e2e/run.py", "--workload", "all", "--smoke",
         "--seconds", "2", "--trace", "1", "--out", ".reach-bench"],
        {},
    )]
    for example in sorted((copy / "examples").glob("*.py")):
        points.append((f"examples/{example.name}",
                       [python, f"examples/{example.name}"], {}))
    for script, args in (
        ("serve_smoke.py", ["--queries", "4"]),
        ("trace_smoke.py", []),
        ("plan_explain_smoke.py", []),
        ("wal_crash_smoke.py", ["--tables", "150"]),
    ):
        points.append((f"scripts/{script}",
                       [python, f"scripts/{script}", *args], {}))
    pytest = [python, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    points.append(("tests/test_cli.py", [*pytest, "tests/test_cli.py"], {}))
    benches = sorted(
        f"benchmarks/{path.name}"
        for path in (copy / "benchmarks").glob("bench_*.py")
    )
    points.append((
        PAPER_BENCHES,
        [*pytest, "--benchmark-disable", *benches],
        {"MATE_BENCH_CORPUS_SCALE": "0.15"},
    ))
    return points


def copy_repository(target: Path) -> None:
    """Copy the files git knows of (tracked and untracked-not-ignored)."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=REPO_ROOT, check=True, capture_output=True,
    ).stdout.decode("utf-8")
    for name in filter(None, listing.split("\0")):
        source = REPO_ROOT / name
        if not source.is_file():
            continue  # deleted in the working tree
        destination = target / name
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, destination)


def collect_hits(reach_dir: Path) -> set[tuple[str, int]]:
    """Union of every process dump under ``reach_dir`` (then removed)."""
    hits: set[tuple[str, int]] = set()
    for dump in reach_dir.glob("*.json"):
        hits.update((name, line) for name, line in json.loads(dump.read_text()))
        dump.unlink()
    return hits


def _header_end(statement: ast.stmt) -> int:
    """Last line of a statement's own text (a compound one: its header)."""
    bodies = [
        getattr(statement, field)
        for field in ("body", "orelse", "finalbody", "handlers")
        if getattr(statement, field, None)
    ]
    if not bodies:
        return statement.end_lineno or statement.lineno
    first = min(block[0].lineno for block in bodies)
    return max(statement.lineno, first - 1)


def function_statements(path: Path) -> dict[str, list[tuple[int, int]]]:
    """Qualified function name -> ``(first, last)`` line span per statement.

    Each statement belongs to its innermost function; the docstring and
    ``global`` / ``nonlocal`` declarations (no bytecode) are not counted.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions: dict[str, list[tuple[int, int]]] = {}

    def visit_body(body: list[ast.stmt], owner: str | None, prefix: str) -> None:
        for position, statement in enumerate(body):
            is_function = isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if owner is not None and not (
                position == 0 and _is_docstring(statement)
            ) and not isinstance(statement, (ast.Global, ast.Nonlocal)):
                first = min(
                    [statement.lineno]
                    + [d.lineno for d in getattr(statement, "decorator_list", [])]
                )
                functions[owner].append((first, _header_end(statement)))
            if is_function:
                name = f"{prefix}{statement.name}"
                functions.setdefault(name, [])
                visit_body(statement.body, name, f"{name}.<locals>.")
            elif isinstance(statement, ast.ClassDef):
                visit_body(statement.body, owner, f"{prefix}{statement.name}.")
            else:
                for field in ("body", "orelse", "finalbody"):
                    visit_body(getattr(statement, field, []), owner, prefix)
                for handler in getattr(statement, "handlers", []):
                    visit_body(handler.body, owner, prefix)

    visit_body(tree.body, None, "")
    return functions


def _is_docstring(statement: ast.stmt) -> bool:
    return (
        isinstance(statement, ast.Expr)
        and isinstance(statement.value, ast.Constant)
        and isinstance(statement.value.value, str)
    )


def executed(spans: list[tuple[int, int]], lines: set[int]) -> int:
    """How many statement spans saw at least one line event."""
    return sum(
        any(line in lines for line in range(first, last + 1))
        for first, last in spans
    )


def report(
    copy: Path, hits_by_entry: dict[str, set[tuple[str, int]]],
    seconds_by_entry: dict[str, float], exit_codes: dict[str, int],
) -> dict:
    root = copy / "src" / "repro"
    union: set[tuple[str, int]] = set().union(*hits_by_entry.values())
    files: dict[str, dict] = {}
    never_run: list[str] = []
    spans_by_file: dict[str, list[tuple[int, int]]] = {}
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        functions = function_statements(path)
        lines = {line for file, line in union if file == name}
        spans = [span for body in functions.values() for span in body]
        spans_by_file[name] = spans
        files[name] = {
            "executed": executed(spans, lines),
            "statements": len(spans),
        }
        never_run.extend(
            f"{name}::{function}"
            for function, body in functions.items()
            if body and executed(body, lines) == 0
        )

    def share(hits: set[tuple[str, int]]) -> dict[str, float | int]:
        total = done = 0
        for name, spans in spans_by_file.items():
            lines = {line for file, line in hits if file == name}
            total += len(spans)
            done += executed(spans, lines)
        return {"executed": done, "statements": total,
                "share": round(done / total, 4) if total else 0.0}

    without_benches = set().union(*(
        hits for label, hits in hits_by_entry.items() if label != PAPER_BENCHES
    ))
    return {
        "about": "function-body statements of src/repro executed by the "
                 "entry points; generated by scripts/reachability.py",
        "python": sys.version.split()[0],
        "total": share(union),
        "total_without_paper_benches": share(without_benches),
        "entry_points": [
            {"name": label, "exit_code": exit_codes[label],
             "seconds": round(seconds_by_entry[label], 1),
             **share(hits_by_entry[label])}
            for label in hits_by_entry
        ],
        "files": files,
        "never_run_functions": never_run,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reachability-") as tmp:
        copy = Path(tmp) / "repo"
        copy_repository(copy)
        (copy / "src" / "sitecustomize.py").write_text(HOOK, encoding="utf-8")
        reach_dir = copy / ".reach"
        hits_by_entry: dict[str, set[tuple[str, int]]] = {}
        seconds: dict[str, float] = {}
        exit_codes: dict[str, int] = {}
        for label, command, extra_env in entry_points(copy):
            env = dict(os.environ, PYTHONPATH=str(copy / "src"), **extra_env)
            started = time.perf_counter()
            completed = subprocess.run(
                command, cwd=copy, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            seconds[label] = time.perf_counter() - started
            exit_codes[label] = completed.returncode
            hits_by_entry[label] = collect_hits(reach_dir)
            status = "ok" if completed.returncode == 0 else (
                f"exit {completed.returncode}: {completed.stdout[-600:]}"
            )
            print(f"{label}: {len(hits_by_entry[label])} lines, "
                  f"{seconds[label]:.0f}s, {status}", file=sys.stderr)
        document = report(copy, hits_by_entry, seconds, exit_codes)

    out = REPO_ROOT / "REACHABILITY.json"
    out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    total = document["total"]
    print(f"{total['executed']} / {total['statements']} function-body "
          f"statements executed ({total['share']:.0%}); wrote {out}")
    failed = [label for label, code in exit_codes.items()
              if code != 0 and label != PAPER_BENCHES]
    if failed:
        print(f"entry points failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
