"""Row verification against the index's postings, differential.

A request verifies its surviving ``(row, key tuple)`` pairs by matching the
pairs' rows against the ``(row ordinal, column)`` postings of its key values
(:func:`repro.core.joinability.key_matches`), read off the index it fetched
from.  Every target an index can be served from numbers its rows its own
way: a bulk block by its row table, a live snapshot component after
component, a reopened directory by its segments and replayed buffer, a pool
worker by its shard's block.  On each, every answer, mapping and
``DiscoveryCounters`` field must be the verbatim per-table loop's
(``tests/helpers.legacy_discover`` over ``legacy_verify_table``).

The lakes are shaped for the kernel's corner cases: a value twice in one
row, key tuples repeating a value, missing cells in rows and keys, key
values no table holds, and empty trailing columns (the index never sees
them, the charged width counts them).  The kernel's dense tables and its
sort-and-search fallback must agree, and a query of many rows and key
values over an index of many rows must take memory linear in what the
request reads.
"""

from __future__ import annotations

import random
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro import MateConfig, MateDiscovery, build_index
from repro.core import joinability
from repro.core.joinability import KeyPostings
from repro.core.parallel import merge_discovery_results, shard_corpus
from repro.datamodel import MISSING, QueryTable, Table, TableCorpus
from repro.ingest import LiveIndex
from repro.ingest.live import read_snapshot
from repro.metrics import DiscoveryCounters
from repro.serve import ProcessShardPool, ServeConfig

from tests.helpers import (
    assert_matches_legacy,
    legacy_discover,
    replace_table,
    visible_corpus,
    without_row,
)

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=10_000)
VOCAB = ["ada", "bob", "cy", "dee", "eve", "fay"]
#: Probed, never indexed.
ABSENT = "zz"
KS = (1, 3, 10)


def lake(seed: int, count: int = 14) -> TableCorpus:
    """Tables of 2-6 columns, the last 0-2 of them empty, over a small
    vocabulary (so rows hold key values in several columns), with missing
    cells and, in some rows, the first value twice."""
    rng = random.Random(seed)
    corpus = TableCorpus(name=f"lake{seed}")
    for table_id in range(count):
        width = rng.randint(2, 6)
        filled = max(1, width - rng.choice([0, 0, 1, 2]))
        rows = []
        for _ in range(rng.randint(1, 8)):
            row = [rng.choice([*VOCAB, MISSING]) for _ in range(filled)]
            if filled > 1 and rng.random() < 0.3:
                row[rng.randrange(1, filled)] = row[0]
            rows.append(row + [MISSING] * (width - filled))
        corpus.add_table(
            Table(table_id, f"t{table_id}", [f"c{i}" for i in range(width)], rows)
        )
    return corpus


def queries(seed: int) -> list[QueryTable]:
    """Key widths 1-3: rows over the vocabulary, the absent value and the
    missing one, plus rows repeating a value across key positions."""
    rng = random.Random(seed)
    made = []
    for width in (1, 2, 2, 3):
        columns = [f"k{i}" for i in range(width)]
        rows = [
            [rng.choice([*VOCAB, ABSENT, MISSING]) for _ in range(width)]
            for _ in range(rng.randint(3, 7))
        ]
        rows.append([rng.choice(VOCAB)] * width)
        made.append(
            QueryTable(Table(900 + len(made), "q", columns, rows), columns)
        )
    return made


SEEDS = (3, 17, 29)


def check_engine(corpus, index, modes=("superkey", "none", "oracle")) -> None:
    for mode in modes:
        engine = MateDiscovery(corpus, index, config=CONFIG, row_filter_mode=mode)
        for seed in SEEDS:
            for query in queries(seed):
                for k in KS:
                    assert_matches_legacy(engine, query, k=k)


#: ``key_matches``' dense-table budget per item: every table dense, or none.
KERNELS = {"dense": 1 << 40, "sorted": 0}


@pytest.fixture(params=sorted(KERNELS))
def kernel(request, monkeypatch):
    """Run the test with only the dense tables, or only sort-and-search."""
    monkeypatch.setattr(joinability, "_DENSE_PER_ITEM", KERNELS[request.param])
    return request.param


@pytest.mark.parametrize("seed", SEEDS)
def test_bulk_index(seed, kernel):
    corpus = lake(seed)
    check_engine(corpus, build_index(corpus, config=CONFIG))


def test_live_index_through_its_edits(tmp_path):
    """Segments and buffer (rows numbered past the segments), a tombstoned
    segment copy and its re-ingested edit, a buffer-resident remove and
    re-ingest of the same id, then seal, merge and compaction."""
    corpus = lake(41, count=16)
    directory = tmp_path / "live"
    live = LiveIndex.open(directory, config=CONFIG)
    session = repro.DiscoverySession(TableCorpus(name="live"), live, config=CONFIG)
    tables = list(corpus)
    for table in tables[:6]:
        session.ingest(table)
    live.seal()
    for table in tables[6:10]:
        session.ingest(table)
    live.seal()
    for table in tables[10:]:
        session.ingest(table)
    check_engine(session.corpus, live, modes=("superkey", "oracle"))

    # Segment-resident: tombstone, the edit lands in the buffer.
    edited = tables[2]
    if edited.num_rows > 1:
        edited = without_row(edited, 0)
    replace_table(session, edited)
    # Buffer-resident: dropped and re-ingested as it was.
    replace_table(session, tables[12])
    session.remove(tables[7].table_id)
    assert live.tombstones
    check_engine(session.corpus, live, modes=("superkey", "oracle"))

    live.seal()
    check_engine(session.corpus, live, modes=("superkey", "oracle"))
    assert live.merge(0, 2) is not None
    check_engine(session.corpus, live, modes=("superkey", "oracle"))
    live.compact()
    assert live.num_segments == 1 and not live.tombstones
    check_engine(session.corpus, live, modes=("superkey", "oracle"))

    # Reopened: by the writer, and read only.
    served = visible_corpus(live, session.corpus)
    session.close()
    live.close()
    reopened = LiveIndex.open(directory, config=CONFIG)
    check_engine(served, reopened, modes=("superkey",))
    reopened.close()
    check_engine(served, read_snapshot(directory), modes=("superkey", "oracle"))


def test_reopened_directory_with_a_buffer(tmp_path, kernel):
    """A directory whose WAL replays into the buffer on open: segment rows,
    then replayed buffer rows."""
    corpus = lake(5)
    directory = tmp_path / "live"
    live = LiveIndex.open(directory, config=CONFIG)
    tables = list(corpus)
    for table in tables[:8]:
        live.add_table(table)
    live.seal()
    for table in tables[8:]:
        live.add_table(table)
    live.remove_table(tables[3].table_id)
    live.close()
    served = TableCorpus(
        name="served", tables=[t for t in tables if t.table_id != tables[3].table_id]
    )
    snapshot = read_snapshot(directory)
    assert snapshot.num_rows() > snapshot._bases[1] > 0
    check_engine(served, snapshot)


def _fixed_counters(counters: DiscoveryCounters) -> dict:
    return {
        field.name: getattr(counters, field.name)
        for field in fields(DiscoveryCounters)
        if field.name not in ("runtime_seconds", "extra", "stages")
    }


def test_process_pool_shards():
    """Each worker verifies against its own shard's block: the merged
    answer and counters are the merge of the loop over every shard."""
    corpus = lake(23, count=18)
    shards = [
        MateDiscovery(shard, build_index(shard, config=CONFIG), config=CONFIG)
        for shard in shard_corpus(corpus, 2)
    ]
    with ProcessShardPool(
        corpus,
        config=CONFIG,
        hash_function_name="xash",
        serve_config=ServeConfig(num_shards=2),
    ) as pool:
        for seed in SEEDS:
            for query in queries(seed):
                for k in KS:
                    result = pool.discover(query, k)
                    expected = merge_discovery_results(
                        [legacy_discover(shard, query, k) for shard in shards], k
                    )
                    assert [
                        (t.table_id, t.joinability, t.column_mapping)
                        for t in result.tables
                    ] == [
                        (t.table_id, t.joinability, t.column_mapping)
                        for t in expected.tables
                    ]
                    assert result.complete == expected.complete
                    assert _fixed_counters(result.counters) == _fixed_counters(
                        expected.counters
                    )


def test_a_large_query_over_many_key_values():
    """A query of 1,500 rows and two key columns over a lake of 6,000
    distinct values: the ``(row, value)`` table would be far larger than
    the postings and lookups, so the kernel sorts and searches — with the
    loop's answers and counters."""
    rng = random.Random(11)
    vocab = [f"v{i}" for i in range(6000)]
    corpus = TableCorpus(name="wide")
    for table_id in range(60):
        rows = [[rng.choice(vocab) for _ in range(4)] for _ in range(40)]
        corpus.add_table(
            Table(table_id, f"t{table_id}", [f"c{i}" for i in range(4)], rows)
        )
    query_rows = [
        row[:2] for table in corpus for row in table.rows if rng.random() < 0.5
    ]
    query_rows += [[rng.choice(vocab), rng.choice(vocab)] for _ in range(300)]
    query = QueryTable(Table(999, "q", ["a", "b"], query_rows[:1500]), ["a", "b"])
    paths = []
    code_runs = joinability._code_runs

    def recorded(codes, columns, size, budget):
        paths.append(size <= budget)
        return code_runs(codes, columns, size, budget)

    index = build_index(corpus, config=CONFIG)
    engine = MateDiscovery(corpus, index, config=CONFIG)
    joinability._code_runs = recorded
    try:
        for k in (1, 10):
            result = assert_matches_legacy(engine, query, k=k)
            assert result.plan.verified_pairs > 1000
    finally:
        joinability._code_runs = code_runs
    assert paths and not any(paths)


def test_kernel_memory_is_linear_in_the_request():
    """Nothing is sized by the index's row count or by (rows x key values):
    4,000 pairs on distinct rows of a billion-row index, 4,000 key values,
    and the peak stays within a few hundred bytes per posting and lookup."""
    rng = np.random.default_rng(5)
    pairs, values = 4000, 4000
    pair_rows = rng.choice(10**9, size=pairs, replace=False).astype(np.int64)
    key_ids = np.arange(2 * values, dtype=np.intp).reshape(values, 2) % values
    key_ids[::7, 1] = key_ids[::7, 0]
    pair_keys = rng.integers(0, values, size=pairs).astype(np.intp)
    # Every pair's row holds its first key value at column 0 and its second
    # at column 1; other postings land on rows no pair names.
    holds = np.concatenate([pair_rows, pair_rows, pair_rows + 1])
    postings = KeyPostings(
        values=np.concatenate(
            [key_ids[pair_keys, 0], key_ids[pair_keys, 1], key_ids[pair_keys, 0]]
        ),
        rows=holds,
        columns=np.repeat(np.array([0, 1, 0], dtype=np.intp), pairs),
        num_rows=10**9 + 1,
    )
    order = np.lexsort((postings.rows, postings.values))
    postings = KeyPostings(
        postings.values[order],
        postings.rows[order],
        postings.columns[order],
        postings.num_rows,
    )
    tracemalloc.start()
    try:
        owner, chosen = joinability.key_matches(pair_rows, pair_keys, key_ids, postings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    items = len(postings.rows) + 2 * pairs
    assert peak < 400 * items
    # A pair whose two key values are equal holds that value at columns 0
    # and 1, so it maps both ways; every other pair maps (0, 1).
    equal = key_ids[pair_keys, 0] == key_ids[pair_keys, 1]
    assert 0 < equal.sum() < pairs
    expected = [
        (pair, mapping)
        for pair in range(pairs)
        for mapping in ([(0, 1), (1, 0)] if equal[pair] else [(0, 1)])
    ]
    assert list(zip(owner.tolist(), zip(*(c.tolist() for c in chosen)))) == expected
