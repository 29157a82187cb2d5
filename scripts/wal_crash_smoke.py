#!/usr/bin/env python
"""WAL crash-recovery smoke test (run by the CI ``ingest`` job).

Spawns a child process that streams tables into a persisted
:class:`repro.ingest.LiveIndex`, printing each table id *after* the write is
acknowledged (WAL appended + buffer applied).  The parent SIGKILLs the child
mid-ingest — no clean shutdown, no seal — then reopens the directory and
verifies the recovery contract:

* every acknowledged table is visible after WAL replay (durability), and
* the recovered index equals a bulk-built index over those same tables
  (correctness) and keeps accepting writes.

A torn in-flight record (the table being logged when the kill landed) is
allowed to be absent; anything acknowledged is not.

A second child dies *inside a seal*, after the segment's ``.seg`` reached its
final name and before its sketch file (``.sk``) was written: the manifest
never named the segment and the WAL was not truncated, so the reopen must
sweep the orphan, replay every table — postings and sketches — and seal
again under the same name.

Usage::

    PYTHONPATH=src python scripts/wal_crash_smoke.py [--tables 200]
"""

from __future__ import annotations

import argparse
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
_SRC = REPO_ROOT / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: The ingesting child: prints "ACK <table_id>" per durable write, forever
#: re-ingesting fresh ids until killed.
CHILD_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro import LiveIndex, MateConfig
from repro.datamodel import Table

live = LiveIndex.open({directory!r}, config=MateConfig(hash_size=128))
table_id = 0
while True:
    table = Table(
        table_id=table_id,
        name=f"t{{table_id}}",
        columns=["a", "b"],
        rows=[[f"v{{table_id % 17}}", f"w{{(table_id * 3) % 17}}"]] * 3,
    )
    live.add_table(table)
    print(f"ACK {{table_id}}", flush=True)
    table_id += 1
"""


#: The sealing child: acknowledges ``tables`` tables, then kills itself where
#: ``seal`` would write the sketch file — the ``.seg`` is already in place.
SEAL_CHILD_SCRIPT = """
import os, signal, sys
sys.path.insert(0, {src!r})
from repro import LiveIndex, MateConfig
from repro.datamodel import Table
from repro.sketch import SketchIndex

live = LiveIndex.open({directory!r}, config=MateConfig(hash_size=128))
for table_id in range({tables}):
    live.add_table(Table(table_id, f"t{{table_id}}", ["a", "b"],
                         [[f"v{{table_id % 17}}", f"w{{table_id}}"]] * 2))
    if table_id == {tables} // 2:
        live.seal()  # one segment that did get its sketch file
SketchIndex.save = lambda *args, **kwargs: os.kill(os.getpid(), signal.SIGKILL)
live.seal()
"""


def seal_crash_round(tmp: str, tables: int) -> str | None:
    """Kill a child between a seal's ``.seg`` and ``.sk``; returns what is
    wrong with the reopened directory (``None``: nothing)."""
    from repro import LiveIndex, MateConfig

    directory = Path(tmp) / "sealing"
    child = subprocess.run(
        [sys.executable, "-c", SEAL_CHILD_SCRIPT.format(
            src=str(_SRC), directory=str(directory), tables=tables)],
    )
    if child.returncode != -signal.SIGKILL:
        return f"the sealing child exited with {child.returncode}, not by SIGKILL"
    if not (directory / "segment-000002.seg").exists():
        return "the kill landed before the segment file was in place"
    recovered = LiveIndex.open(directory, config=MateConfig(hash_size=128))
    try:
        left = sorted(
            path.name for path in directory.iterdir()
            if path.name.startswith("segment-") or path.name.endswith(".tmp")
        )
        if left != ["segment-000001.seg", "segment-000001.sk"]:
            return f"the reopen left {left} beside the manifest"
        if recovered.indexed_tables() != set(range(tables)):
            return "tables are missing after the replay"
        store = recovered.sketch_index()
        if store is None or store.table_ids() != set(range(tables)):
            return "the sketch store is stale or incomplete after the replay"
        recovered.seal()
        if not (directory / "segment-000002.sk").exists():
            return "the repeated seal wrote no sketch file"
    finally:
        recovered.close()
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tables", type=int, default=200,
        help="acknowledged tables to wait for before killing the child",
    )
    args = parser.parse_args(argv)

    from repro import LiveIndex, MateConfig, TableCorpus, build_index
    from repro.datamodel import Table

    with tempfile.TemporaryDirectory(prefix="wal-crash-") as tmp:
        directory = str(Path(tmp) / "live")
        child = subprocess.Popen(
            [sys.executable, "-c",
             CHILD_SCRIPT.format(src=str(_SRC), directory=directory)],
            stdout=subprocess.PIPE,
            text=True,
        )
        acknowledged: list[int] = []
        assert child.stdout is not None
        deadline = time.monotonic() + 120
        while len(acknowledged) < args.tables:
            if time.monotonic() > deadline:
                child.kill()
                print("error: child too slow to acknowledge", file=sys.stderr)
                return 1
            line = child.stdout.readline()
            if not line:
                print("error: child died before the kill", file=sys.stderr)
                return 1
            if line.startswith("ACK "):
                acknowledged.append(int(line.split()[1]))
        # SIGKILL mid-ingest: the child gets no chance to flush or seal.
        child.send_signal(signal.SIGKILL)
        child.wait()
        child.stdout.close()

        recovered = LiveIndex.open(directory, config=MateConfig(hash_size=128))
        visible = recovered.indexed_tables()
        missing = [tid for tid in acknowledged if tid not in visible]
        if missing:
            print(
                f"error: {len(missing)} acknowledged tables lost after "
                f"replay: {missing[:10]}",
                file=sys.stderr,
            )
            return 1
        # At most the one in-flight (never acknowledged) table may also be
        # visible — its WAL record can have been completed before the kill.
        extra = visible - set(acknowledged)
        if len(extra) > 1:
            print(f"error: unexpected extra tables {sorted(extra)}", file=sys.stderr)
            return 1

        # The replayed buffer equals a bulk rebuild over the same tables.
        corpus = TableCorpus(
            name="smoke",
            tables=sorted(recovered.recovered_tables(), key=lambda t: t.table_id),
        )
        bulk = build_index(corpus, config=MateConfig(hash_size=128))
        probes = [f"v{i}" for i in range(17)] + [f"w{i}" for i in range(17)]
        if recovered.fetch(probes) != bulk.fetch(probes):
            print("error: replayed fetch differs from bulk rebuild", file=sys.stderr)
            return 1

        # Recovery is not read-only: ingestion continues where it left off.
        next_id = max(visible) + 1
        recovered.add_table(
            Table(table_id=next_id, name="post-crash", columns=["a", "b"],
                  rows=[["v1", "w1"]])
        )
        recovered.close()

        wrong = seal_crash_round(tmp, min(args.tables, 40))
        if wrong is not None:
            print(f"error: kill between .seg and .sk: {wrong}", file=sys.stderr)
            return 1

        print(
            f"wal crash smoke OK: killed child (pid {child.pid}) after "
            f"{len(acknowledged)} acked tables; {len(visible)} replayed "
            f"({len(extra)} in-flight), fetch identical to bulk rebuild, "
            "post-crash ingest accepted; a seal killed between .seg and .sk "
            "was swept, replayed and repeated"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
