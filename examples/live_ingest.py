"""Live ingestion: stream tables into a serving session while querying it.

Every other example indexes its corpus once, offline.  This one runs the
online path of :mod:`repro.ingest`: a :class:`~repro.LiveIndex` accepts
tables through ``session.ingest()`` while a background
:class:`~repro.Compactor` seals the write buffer into immutable columnar
segments and merges them — and a concurrent reader thread keeps answering
``engine="live"`` discovery requests the whole time.  Snapshot isolation
guarantees each query a consistent view no matter how compaction interleaves.
Finally ``session.remove()`` takes the best table out again, and the next
query no longer returns it.

Run with::

    python examples/live_ingest.py
"""

from __future__ import annotations

import random
import threading
import time

from repro import (
    CompactionPolicy,
    Compactor,
    DiscoveryRequest,
    DiscoverySession,
    LiveIndex,
    MateConfig,
    QueryTable,
    Table,
    TableCorpus,
)

NUM_TABLES = 120
CONFIG = MateConfig(hash_size=128, k=3, expected_unique_values=100_000)


def build_query() -> QueryTable:
    table = Table(
        table_id=10_000_000,
        name="watchlist",
        columns=["player", "club", "note"],
        rows=[
            [f"player-{i}", f"club-{i % 7}", f"note-{i}"] for i in range(8)
        ],
    )
    return QueryTable(table=table, key_columns=["player", "club"])


def make_table(table_id: int, rng: random.Random) -> Table:
    """A transfer-window feed table; later ids overlap the watchlist more."""
    overlap = min(table_id // 15 + 1, 8)
    rows = [
        [f"player-{i}", f"club-{i % 7}", f"fee-{rng.randint(1, 99)}m"]
        for i in rng.sample(range(10), overlap)
    ] + [
        [f"player-{rng.randint(50, 999)}", f"club-{rng.randint(8, 30)}", "fee-0m"]
        for _ in range(3)
    ]
    return Table(
        table_id=table_id,
        name=f"feed-{table_id}",
        columns=["athlete", "team", "fee"],
        rows=rows,
    )


def main() -> None:
    rng = random.Random(7)
    query = build_query()
    request = DiscoveryRequest(query=query, engine="live")

    live = LiveIndex(config=CONFIG)  # pass directory=... for WAL durability
    session = DiscoverySession(TableCorpus(name="stream"), live, config=CONFIG)
    policy = CompactionPolicy(
        max_buffer_rows=40, max_segments=3, interval_seconds=0.005
    )

    observations: list[tuple[int, int, list[tuple[int, int]]]] = []
    done = threading.Event()

    def reader() -> None:
        """Query concurrently with ingestion and compaction."""
        while not done.is_set():
            result = session.discover(request)
            observations.append(
                (live.generation, live.num_segments, result.result_tuples())
            )
            time.sleep(0.002)

    reader_thread = threading.Thread(target=reader, name="reader")
    with session, Compactor(live, policy):  # background compaction thread
        reader_thread.start()
        started = time.perf_counter()
        total_rows = 0
        for table_id in range(NUM_TABLES):
            total_rows += session.ingest(make_table(table_id, rng))
        elapsed = time.perf_counter() - started
        done.set()
        reader_thread.join()

        final = session.discover(request)
        removed = final.tables[0].table_id
        session.remove(removed)  # tombstoned: it may sit in a sealed segment
        after = session.discover(request)

    print(
        f"ingested {NUM_TABLES} tables / {total_rows} rows in {elapsed:.3f}s "
        f"({total_rows / elapsed:.0f} rows/s) while serving "
        f"{len(observations)} concurrent queries"
    )
    print(
        f"live index: {live.num_posting_items()} postings in "
        f"{live.num_segments} segments + {live.buffer_rows} buffered rows "
        f"(generation {live.generation})"
    )

    # Each concurrent query saw a consistent snapshot; the top-k only ever
    # improves as more joinable feed tables arrive.
    best_seen = 0
    monotone = True
    for _generation, _segments, ranked in observations:
        top = ranked[0][1] if ranked else 0
        monotone = monotone and top >= best_seen
        best_seen = max(best_seen, top)
    print(f"concurrent top-1 joinability grew monotonically: {monotone}")

    print(f"\nfinal top-{final.k} for key {query.key_columns}:")
    for entry in final.tables:
        print(
            f"  table {entry.table_id} ({entry.table_name}): "
            f"joinability={entry.joinability}"
        )
    left = removed not in [entry.table_id for entry in after.tables]
    print(f"\nremoved table {removed}; it left the answers: {left}")


if __name__ == "__main__":
    main()
