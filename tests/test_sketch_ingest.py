"""The sketch tier beside the write path: id-based signing, buckets filled
on the first read, sketches signed by the first sketch read after a write.

* A batch of tables is signed by vocabulary id in one pass
  (``SketchIndex.add_tables``; ``add_table`` is a batch of one).  Every
  signature must equal the
  stdlib loop (``tests/helpers.py::legacy_minhash_signature``) bit for bit,
  for whatever a batch can hold (missing cells, all-missing columns and
  tables, tables without rows, duplicates) — with the broadcast cut into
  slices small enough to split columns and tables.
* The reduction mod ``2^61 - 1`` equals ``%`` at its edges and on random
  ``uint64`` vectors.
* Buckets are derived state: writes and loads store signatures only, the
  next read buckets them.  ``candidate_tables`` / ``query`` / ``table_ids``
  and the stored bytes must answer like the eager tuple-keyed set buckets
  they replaced (``tests/helpers.py::LegacySketchIndex``) over histories of
  adds, batch builds, removes (of bucketed tables and of tables no read
  bucketed yet), re-adds and save / load round trips — also while writer
  threads ingest into a live session and reader threads query its store.
* Nothing on the write path signs or writes a sketch: ingest, remove, seal,
  merge and reopen run with signing broken, a live directory holds no
  ``.sk`` file (the per-segment files earlier releases wrote are swept at
  the next writer open), and the session's store — signed at its first
  sketch read, re-signed for the tables written since — answers like a
  bulk build of the visible tables, across crashes between the files of a
  seal or a merge, tombstones, re-added ids and lone surrogates.
"""

from __future__ import annotations

import random
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    SketchIndex,
    SketchOptions,
    Table,
    build_index,
    build_sketch_index,
)
from repro.datamodel import QueryTable, TableCorpus
from repro.exceptions import StorageError
from repro.ingest import CompactionPolicy, Compactor, LiveIndex
from repro.ingest.live import read_snapshot
from repro.plan import PlannerOptions
from repro.sketch import permutation_params
from repro.sketch.minhash import MERSENNE_PRIME, _permuted, hash_value, pack_signature

from tests.helpers import LegacySketchIndex, legacy_minhash_signature, sketch_rows

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=10_000)
VOCABULARY = ["", "", "ada", "alan", "grace", "İstanbul", "straße", "漢字", "42", "x y"]


@st.composite
def tables(draw, table_id: int = 1) -> Table:
    num_columns = draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(
                st.sampled_from(VOCABULARY), min_size=num_columns, max_size=num_columns
            ),
            max_size=6,
        )
    )
    columns = [f"c{position}" for position in range(num_columns)]
    return Table(table_id, f"t{table_id}", columns, rows)


@st.composite
def batches(draw) -> list[Table]:
    """Tables of distinct ids, in no particular id order."""
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True))
    return [draw(tables(table_id)) for table_id in ids]


# ----------------------------------------------------------------------
# Signing by id
# ----------------------------------------------------------------------
def stdlib_signature(values, a, b) -> tuple[int, ...]:
    return legacy_minhash_signature(sorted({hash_value(v) for v in values}), a, b)


def stdlib_sketches(batch: list[Table]) -> list[tuple]:
    """``(table, column, cardinality, packed)`` of every column holding a
    value, in batch order, signed by the stdlib loop."""
    a, b = permutation_params(128, 1_000_003)
    return [
        (table.table_id, column, len(values), pack_signature(stdlib_signature(values, a, b)))
        for table in batch
        for column in range(table.num_columns)
        if (values := table.distinct_column_values(column))
    ]


@given(batch=batches(), bound=st.integers(1, 8))
@settings(max_examples=60, deadline=None)
def test_the_batch_signer_equals_the_stdlib_loop(batch, bound):
    """One pass over a batch, cut into slices of ``bound`` value hashes —
    mid-column and mid-table — signs every column like the stdlib loop."""
    expected = sorted(stdlib_sketches(batch))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sketch.minhash._BROADCAST_VALUES", bound)
        whole = SketchIndex()
        assert whole.add_tables(batch) == len(expected)
        assert sketch_rows(whole) == expected
        one_by_one = SketchIndex()
        for table in batch:
            one_by_one.add_table(table)
        assert sketch_rows(one_by_one) == expected


def test_tables_without_rows_or_values_sign_nothing():
    a, b = permutation_params(128, 1_000_003)
    batch = [
        Table(4, "no_rows", ["a", "b"], []),
        Table(2, "all_missing", ["a", "b"], [["", ""], ["", ""]]),
        Table(9, "blank_column", ["a", "b", "c"], [["x", "", "x"], ["y", "", "x"]]),
    ]
    store = SketchIndex()
    assert store.add_tables(batch[:2]) == 0 and store.table_ids() == set()
    assert store.add_tables(batch) == 2
    assert sketch_rows(store) == [
        (9, 0, 2, pack_signature(stdlib_signature({"x", "y"}, a, b))),
        (9, 2, 1, pack_signature(stdlib_signature({"x"}, a, b))),
    ]
    assert store.add_tables([]) == 0


MASK_64 = (1 << 64) - 1
P = MERSENNE_PRIME
EDGES = [0, 1, P - 1, P, P + 1, 1 << 61, 1 << 63, MASK_64, 2 * P - 1, 2 * P, 7 * P, 8 * P - 1]


def test_the_mersenne_reduction_equals_mod_p_at_its_edges():
    reduced = _permuted(np.array(EDGES, dtype=np.uint64), (1,), (0,))
    assert reduced.tolist() == [[value % P for value in EDGES]]


@given(
    hashes=st.lists(st.integers(0, MASK_64), min_size=1, max_size=40),
    a=st.lists(st.integers(1, P - 1), min_size=1, max_size=4),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_the_mersenne_reduction_equals_mod_p_on_random_vectors(hashes, a, data):
    b = data.draw(st.lists(st.integers(0, P - 1), min_size=len(a), max_size=len(a)))
    permuted = _permuted(np.array(hashes, dtype=np.uint64), tuple(a), tuple(b))
    assert permuted.tolist() == [
        [((a_i * value + b_i) & MASK_64) % P for value in hashes]
        for a_i, b_i in zip(a, b)
    ]
    raw = _permuted(np.array(hashes, dtype=np.uint64), (1,), (0,))
    assert raw.tolist() == [[value % P for value in hashes]]


# ----------------------------------------------------------------------
# Buckets filled on the first read, against the eager tuple-keyed sets
# ----------------------------------------------------------------------
PROBES = [["ada", "alan"], ["漢字"], ["42", "x y", "grace"], ["nobody"], []]


def oracle_sketches(oracle: LegacySketchIndex) -> list[tuple]:
    return [
        (table_id, column, cardinality, pack_signature(signature))
        for table_id in sorted(oracle._sketches)
        for column, (cardinality, signature) in sorted(oracle._sketches[table_id].items())
    ]


def assert_answers_like(store: SketchIndex, oracle: LegacySketchIndex) -> None:
    assert store.table_ids() == oracle.table_ids()
    assert sketch_rows(store) == oracle_sketches(oracle)
    for probe in PROBES:
        signature = oracle.signature(probe)
        assert store.signature(probe) == signature
        assert store.candidate_tables(signature) == oracle.candidate_tables(signature)
        assert store.query(probe) == oracle.query(probe)
        assert store.query(probe, threshold=0.3, max_candidates=2) == oracle.query(
            probe, threshold=0.3, max_candidates=2
        )


@st.composite
def histories(draw):
    """Adds, batch builds, removes, re-adds and save / load round trips over
    five ids whose tables overlap heavily (shared buckets); after each move
    a read or not, so some tables are removed before any read buckets them."""
    moves = []
    live: set[int] = set()
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["add", "batch", "remove", "reload"]))
        free = sorted(set(range(1, 6)) - live)
        if kind == "remove" and live:
            table_id = draw(st.sampled_from(sorted(live)))
            moves.append(("remove", table_id))
            live.discard(table_id)
        elif kind == "batch" and free:
            ids = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
            moves.append(("batch", [draw(tables(table_id)) for table_id in ids]))
            live.update(ids)
        elif kind == "add" and free:
            table_id = draw(st.sampled_from(free))
            moves.append(("add", draw(tables(table_id))))
            live.add(table_id)
        elif kind == "reload":
            moves.append(("reload", None))
        else:
            continue
        if draw(st.booleans()):
            moves.append(("read", None))
    return moves


@given(history=histories())
@settings(max_examples=80, deadline=None)
def test_lazy_buckets_answer_like_the_eager_tuple_keyed_sets(history):
    store, oracle = SketchIndex(), LegacySketchIndex()
    with tempfile.TemporaryDirectory() as directory:
        for kind, payload in history:
            if kind == "add":
                assert store.add_table(payload) == oracle.add_table(payload)
            elif kind == "batch":
                assert store.add_tables(payload) == sum(map(oracle.add_table, payload))
            elif kind == "remove":
                assert store.remove_table(payload) == oracle.remove_table(payload)
                assert not store.remove_table(payload)
            elif kind == "reload":
                store.save(directory, fsync=False)
                store = SketchIndex.load(directory)
            elif kind == "read":
                assert_answers_like(store, oracle)
        assert_answers_like(store, oracle)
    for table_id in list(store.table_ids()):
        store.remove_table(table_id)
    # Every bucket went back to nothing: no member, no empty set left behind.
    assert all(not bucket for bucket in store._buckets)


def test_writes_and_loads_leave_the_buckets_to_the_first_read(tmp_path):
    store = SketchIndex()
    store.add_table(Table(1, "t", ["a"], [["ada"], ["alan"]]))
    store.add_tables([Table(2, "t", ["a"], [["ada"], ["alan"]])])
    assert all(not bucket for bucket in store._buckets)
    # A table no read bucketed yet goes without touching a bucket.
    assert store.remove_table(2)
    signature = store.signature(["ada", "alan"])
    assert store.candidate_tables(signature) == {1}
    assert sum(map(len, store._buckets)) == store.config.bands
    # Removed once bucketed, re-added, read again.
    assert store.remove_table(1)
    assert all(not bucket for bucket in store._buckets)
    store.add_table(Table(1, "t", ["a"], [["ada"], ["alan"]]))
    assert store.candidate_tables(signature) == {1}
    store.save(tmp_path, fsync=False)
    loaded = SketchIndex.load(tmp_path)
    assert all(not bucket for bucket in loaded._buckets)
    assert loaded.query(["ada", "alan"]) == store.query(["ada", "alan"])


def test_a_bucket_goes_from_one_member_to_two_and_back():
    store = SketchIndex()
    same = [["ada"], ["alan"]]
    for table_id in (1, 2):
        store.add_table(Table(table_id, "t", ["a"], same))
    signature = store.signature(["ada", "alan"])
    assert store.candidate_tables(signature) == {1, 2}
    assert store.remove_table(1)
    assert store.candidate_tables(signature) == {2}
    # Two columns of one table in one bucket, then a second table.
    store.add_table(Table(3, "t", ["a", "b"], [["ada", "ada"], ["alan", "alan"]]))
    assert store.candidate_tables(signature) == {2, 3}
    assert store.remove_table(3) and store.remove_table(2)
    assert store.candidate_tables(signature) == set()
    assert not store.remove_table(2)


def test_readers_query_while_writers_ingest(tmp_path):
    """Writer threads ingest into (and remove from) a live session while
    reader threads ask the session for its store and query it: no read
    fails or sees a table that was never added, and the final store equals
    the oracle."""
    rng = random.Random(11)
    shared = [f"s{i}" for i in range(12)]
    corpus = [
        Table(
            table_id,
            f"t{table_id}",
            ["a", "b"],
            [[rng.choice(shared), f"u{table_id}_{row}"] for row in range(rng.randint(1, 6))],
        )
        for table_id in range(80)
    ]
    removed = {table_id for table_id in range(80) if table_id % 7 == 3}
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    session = DiscoverySession(TableCorpus(name="live"), live, config=CONFIG)
    errors: list[BaseException] = []
    done = threading.Event()

    def write(part: list[Table]) -> None:
        try:
            for table in part:
                session.ingest(table)
                if table.table_id in removed:
                    session.remove(table.table_id)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def read(probe: list[str]) -> None:
        try:
            while not done.is_set():
                for table_id, score in session.sketch_index().query(probe):
                    assert 0 <= table_id < 80 and 0.0 <= score <= 1.0
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(corpus[part::4],)) for part in range(4)]
    readers = [threading.Thread(target=read, args=(probe,)) for probe in (shared[:4], shared)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the dirty set and the refresh
    try:
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers + writers)
    live.close()
    assert not errors
    oracle = LegacySketchIndex()
    for table in corpus:
        if table.table_id not in removed:
            oracle.add_table(table)
    store = session.sketch_index()
    session.close()
    assert_answers_like(store, oracle)
    for probe in (shared[:4], shared, ["u5_0"]):
        assert store.query(probe) == oracle.query(probe)


# ----------------------------------------------------------------------
# Signed at the first sketch read, never on the write path
# ----------------------------------------------------------------------
def make_table(table_id: int, version: int = 0) -> Table:
    return Table(
        table_id,
        f"t{table_id}",
        ["a", "b"],
        [[f"k{table_id}_{version}_{i}", f"shared_{i % 3}"] for i in range(4)],
    )


def files(directory, suffix: str) -> list[str]:
    return sorted(path.name for path in directory.glob(f"*{suffix}"))


def assert_store_is(live: LiveIndex, tables: list[Table]) -> None:
    """A session over ``live`` signs the store of ``tables``."""
    corpus = TableCorpus(name="visible", tables=tables)
    with DiscoverySession(corpus, live, config=CONFIG) as session:
        store = session.sketch_index()
    fresh = build_sketch_index(corpus)
    assert store.table_ids() == fresh.table_ids()
    assert sketch_rows(store) == sketch_rows(fresh)
    for table in tables:
        probe = [row[0] for row in table.rows]
        assert store.query(probe) == fresh.query(probe)


class Crash(Exception):
    pass


def crash(*args, **kwargs):
    raise Crash("power cut")


@pytest.mark.parametrize("target", ["repro.ingest.LiveIndex._write_manifest_locked"])
def test_a_crash_between_the_files_of_a_seal_loses_nothing(tmp_path, monkeypatch, target):
    """Between the ``.seg`` and the manifest: the WAL was not truncated, so
    a reopen sweeps what the seal left and replays the tables."""
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.seal()
    live.add_table(make_table(2))
    with monkeypatch.context() as patched:
        patched.setattr(target, crash)
        with pytest.raises(Crash):
            live.seal()
    assert "segment-000002.seg" in files(tmp_path, ".seg")
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert files(tmp_path, ".seg") == ["segment-000001.seg"]
        assert reopened.indexed_tables() == {1, 2}
        assert_store_is(reopened, [make_table(1), make_table(2)])
        # ... and the replayed table seals under the swept name.
        reopened.seal()
        assert files(tmp_path, ".seg") == ["segment-000001.seg", "segment-000002.seg"]
        assert files(tmp_path, ".sk") == []
    finally:
        reopened.close()


@pytest.mark.parametrize(
    "target",
    ["repro.ingest.LiveIndex._write_manifest_locked", "pathlib.Path.unlink"],
)
def test_a_crash_in_the_middle_of_a_merge_loses_nothing(tmp_path, monkeypatch, target):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    for table_id in (1, 2, 3):
        live.add_table(make_table(table_id))
        live.seal()
    live.remove_table(2)
    with monkeypatch.context() as patched:
        patched.setattr(target, crash)
        with pytest.raises(Crash):
            live.merge(0, None)
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        # Either side of the manifest write: the inputs or the merged
        # segment, and nothing else.
        assert files(tmp_path, ".seg") in (
            ["segment-000001.seg", "segment-000002.seg", "segment-000003.seg"],
            ["segment-000004.seg"],
        )
        assert files(tmp_path, ".sk") == []
        assert reopened.indexed_tables() == {1, 3}
        assert_store_is(reopened, [make_table(1), make_table(3)])
    finally:
        reopened.close()


def test_a_tombstoned_table_is_not_resurrected_and_a_readded_id_reads_its_newest(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.add_table(make_table(2))
    live.seal()
    live.remove_table(1)  # tombstoned; its postings stay in segment 1
    live.remove_table(2)
    live.add_table(make_table(2, version=1))  # the id comes back, other cells
    live.add_table(make_table(3))
    live.seal()  # the manifest now carries both tombstones
    live.close()

    survivors = [make_table(2, version=1), make_table(3)]
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert reopened.tombstones  # no merge purged anything yet
        assert_store_is(reopened, survivors)
        assert reopened.merge(0, None) is not None
        assert_store_is(reopened, survivors)
    finally:
        reopened.close()
    again = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert_store_is(again, survivors)
    finally:
        again.close()
    assert files(tmp_path, ".sk") == []


def directory_state(directory: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["sketches.json", "sketches.bin"])
def test_a_directory_holding_the_whole_store_pair_is_refused_by_name(tmp_path, name):
    """An older build's directory — the pair, or the ``.bin`` a crash in its
    migration left alone — is refused before a file is touched: no sweep of
    orphans or ``.tmp`` files, no torn-tail repair, no manifest write."""
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.seal()
    live.add_table(make_table(2))  # WAL only
    live.close()
    (tmp_path / name).write_bytes(b"what an older build wrote")
    (tmp_path / "segment-000009.seg").write_bytes(b"an orphan")
    (tmp_path / "manifest.json.tmp").write_bytes(b"a torn write")
    with (tmp_path / "wal.jsonl").open("ab") as wal:
        wal.write(b'{"torn')
    before = directory_state(tmp_path)
    with pytest.raises(StorageError, match=name.replace(".", r"\.")) as refused:
        LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    assert "repro index CORPUS --live-dir NEW_DIR" in str(refused.value)
    assert directory_state(tmp_path) == before


def test_the_write_path_signs_nothing(tmp_path, monkeypatch):
    """Ingest, remove, seal, merge and reopen never sign: they all run with
    signing broken, and the directory holds no sketch file."""

    def broken(self, tables):
        raise AssertionError("the write path signed a sketch")

    monkeypatch.setattr(SketchIndex, "add_tables", broken)
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    session = DiscoverySession(TableCorpus(name="live"), live, config=CONFIG)
    compactor = Compactor(live, CompactionPolicy(max_buffer_rows=8, max_segments=2))
    for table_id in range(12):
        session.ingest(make_table(table_id))
        compactor.run_once()
        if table_id % 4 == 3:
            session.remove(table_id - 2)
    session.remove(0)
    session.ingest(make_table(0, version=1))
    live.compact()
    session.close()
    live.close()
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        reopened.add_table(make_table(20))
        reopened.seal()
        assert reopened.indexed_tables() == {0, 2, 3, 4, 6, 7, 8, 10, 11, 20}
    finally:
        reopened.close()
    assert files(tmp_path, ".sk") == []


SKETCH_MODE = {
    "planner": PlannerOptions(mode="sketch"),
    "sketch": SketchOptions(threshold=0.5),
}


def sketch_answers(session: DiscoverySession, queries, engine: str) -> list:
    answers = []
    for query in queries:
        result = session.discover(
            DiscoveryRequest(query=query, k=5, engine=engine, **SKETCH_MODE)
        )
        extra = result.counters.extra
        answers.append(
            (
                result.result_tuples(),
                extra.get("sketch_candidates"),
                extra.get("sketch_estimated_recall"),
            )
        )
    return answers


def history_table(rng: random.Random, table_id: int, version: int) -> Table:
    rows = [
        [f"w{rng.randrange(12)}", f"v{rng.randrange(4)}", f"u{table_id}_{version}_{row}"]
        for row in range(rng.randint(2, 8))
    ]
    return Table(table_id, f"t{table_id}", ["a", "b", "c"], rows)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sketch_reads_after_a_history_equal_a_bulk_build(tmp_path, seed):
    """Ingests, removes, re-ingests of removed ids with new rows, seals,
    merges and a reopen, with sketch reads in between (so later reads only
    re-sign what was written since): sketch-mode answers and the estimated
    recall equal those of a session over a bulk build of the visible
    tables, and the store holds that build's sketches."""
    rng = random.Random(seed)
    directory = tmp_path / "live"
    corpus = TableCorpus(name="stream")
    live = LiveIndex(config=CONFIG, directory=directory, fsync=False)
    session = DiscoverySession(corpus, live, config=CONFIG)
    compactor = Compactor(live, CompactionPolicy(max_buffer_rows=20, max_segments=3))
    queries = [
        QueryTable(
            table=Table(
                900 + n, "q", ["a", "b"], [[f"w{n + i}", f"v{i % 4}"] for i in range(6)]
            ),
            key_columns=["a", "b"],
        )
        for n in range(3)
    ]
    versions: dict[int, int] = {}
    for step in range(60):
        visible = sorted(live.indexed_tables())
        if visible and rng.random() < 0.25:
            session.remove(rng.choice(visible))
        else:
            table_id = rng.randrange(30)
            if live.has_table(table_id):
                session.remove(table_id)
            versions[table_id] = versions.get(table_id, -1) + 1
            session.ingest(history_table(rng, table_id, versions[table_id]))
        compactor.run_once()
        if step % 9 == 0:
            sketch_answers(session, queries, "live")
        if step == 30:
            session.close()
            live.close()
            live = LiveIndex(config=CONFIG, directory=directory, fsync=False)
            session = DiscoverySession(corpus, live, config=CONFIG)
            compactor = Compactor(
                live, CompactionPolicy(max_buffer_rows=20, max_segments=3)
            )
    order = sorted(live.table_sequences().items(), key=lambda item: item[1])
    visible_tables = TableCorpus(
        name="visible", tables=[corpus.get_table(table_id) for table_id, _ in order]
    )
    with DiscoverySession(
        visible_tables, build_index(visible_tables, config=CONFIG), config=CONFIG
    ) as bulk:
        assert sketch_answers(session, queries, "live") == sketch_answers(
            bulk, queries, "mate"
        )
    assert sketch_rows(session.sketch_index()) == sketch_rows(build_sketch_index(visible_tables))
    session.close()
    live.close()
    assert files(directory, ".sk") == []


def test_a_directory_written_with_sketch_files_loses_them_to_the_sweep(tmp_path):
    """Earlier releases wrote one ``segment-NNNNNN.sk`` beside every
    ``.seg`` (the sketches of the segment's visible tables, through
    ``SketchIndex.save``).  Such a directory opens, the writer's sweep
    deletes those files — a read-only snapshot never does — and it answers
    as before, exact and sketch mode alike."""
    directory = tmp_path / "live"
    tables = [make_table(table_id) for table_id in range(6)]
    corpus = TableCorpus(name="all", tables=tables)
    live = LiveIndex(config=CONFIG, directory=directory, fsync=False)
    for table in tables[:3]:
        live.add_table(table)
    live.seal()
    for table in tables[3:5]:
        live.add_table(table)
    live.seal()
    live.remove_table(1)
    live.add_table(tables[5])  # WAL only
    live.close()
    queries = [
        QueryTable(
            table=Table(99, "q", ["a", "b"], [[f"k{t}_0_{i}", f"shared_{i % 3}"] for t in (0, 1, 4, 5) for i in range(2)]),
            key_columns=["a", "b"],
        )
    ]

    def answers() -> list:
        reopened = LiveIndex(config=CONFIG, directory=directory, fsync=False)
        try:
            with DiscoverySession(corpus, reopened, config=CONFIG) as session:
                exact = [
                    session.discover(
                        DiscoveryRequest(query=query, k=5, engine="live")
                    ).result_tuples()
                    for query in queries
                ]
                return exact + sketch_answers(session, queries, "live")
        finally:
            reopened.close()

    expected = answers()
    for generation, visible in ((1, [0, 2]), (2, [3, 4])):
        old = SketchIndex()
        for table_id in visible:
            old.add_table(tables[table_id])
        old.save(directory, stem=f"segment-{generation:06d}", fsync=False)
    assert files(directory, ".sk") == ["segment-000001.sk", "segment-000002.sk"]
    assert read_snapshot(directory).indexed_tables() == {0, 2, 3, 4, 5}
    assert files(directory, ".sk") == ["segment-000001.sk", "segment-000002.sk"]
    assert answers() == expected
    assert files(directory, ".sk") == []
    assert files(directory, ".seg") == ["segment-000001.seg", "segment-000002.seg"]


def test_a_lone_surrogate_is_indexed_and_sketched(tmp_path):
    """XASH, the WAL and ``.seg`` accept a lone surrogate, and so does the
    sketch's base hash: the table is acknowledged, survives a reopen and a
    seal, and sketch-mode reads find it."""
    odd = Table(2, "t", ["a"], [["ok"], ["\ud800"]])
    corpus = TableCorpus(name="live")
    query = QueryTable(table=Table(99, "q", ["a"], [["ok"], ["\ud800"]]), key_columns=["a"])
    request = DiscoveryRequest(query=query, k=5, engine="live", **SKETCH_MODE)
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    with DiscoverySession(corpus, live, config=CONFIG) as session:
        session.ingest(make_table(1))
        session.ingest(odd)
        assert session.sketch_index().table_ids() == {1, 2}
        assert [t for t, _ in session.discover(request).result_tuples()] == [2]
    live.close()
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        reopened.seal()
        with DiscoverySession(corpus, reopened, config=CONFIG) as session:
            result = session.discover(request)
            assert [t for t, _ in result.result_tuples()] == [2]
            assert result.counters.extra["sketch_candidates"] == 1.0
    finally:
        reopened.close()
