"""The sketch tier on the write path: id-based signing, buckets filled on
the first read, one sketch file per segment.

* A batch of tables is signed by vocabulary id in one pass
  (``SketchIndex.add_tables``; ``add_table`` is a batch of one, fed the
  staged encoding on a live index's ack).  Every signature must equal the
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
  threads ingest into a live index and reader threads query its store.
* A live directory holds one ``segment-NNNNNN.sk`` beside every ``.seg``:
  crashes between the files of a seal or a merge, tombstoned tables, re-added
  ids, the refusal of the whole-store pair older builds wrote, and the size
  of it all against one whole-store file.
"""

from __future__ import annotations

import random
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MateConfig, SketchIndex, Table
from repro.exceptions import StorageError
from repro.index import IndexBuilder
from repro.index.bulk import encode_tables
from repro.ingest import CompactionPolicy, Compactor, LiveIndex
from repro.sketch import permutation_params
from repro.sketch.minhash import MERSENNE_PRIME, _permuted, hash_value, pack_signature

from tests.helpers import LegacySketchIndex, legacy_minhash_signature

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


def stored(store: SketchIndex) -> list[tuple]:
    return [
        (s.table_id, s.column_index, s.cardinality, s.packed)
        for s in store.column_sketches()
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
        assert stored(whole) == expected
        one_by_one = SketchIndex()
        for table in batch:
            one_by_one.add_table(table, encode_tables((table,)))
        assert stored(one_by_one) == expected


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
    assert stored(store) == [
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
    assert stored(store) == oracle_sketches(oracle)
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
    """Writer threads ingest into (and remove from) a live index while
    reader threads query its sketch store: no read fails or sees a table
    that was never added, and the final store equals the oracle."""
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
    store = live.sketch_index()
    errors: list[BaseException] = []
    done = threading.Event()

    def write(part: list[Table]) -> None:
        try:
            for table in part:
                live.add_table(table)
                if table.table_id in removed:
                    live.remove_table(table.table_id)
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    def read(probe: list[str]) -> None:
        try:
            while not done.is_set():
                for table_id, score in store.query(probe):
                    assert 0 <= table_id < 80 and 0.0 <= score <= 1.0
        except BaseException as exc:  # pragma: no cover - reported below
            errors.append(exc)

    writers = [threading.Thread(target=write, args=(corpus[part::2],)) for part in (0, 1)]
    readers = [threading.Thread(target=read, args=(probe,)) for probe in (shared[:4], shared)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    done.set()
    for thread in readers:
        thread.join()
    live.close()
    assert not errors
    oracle = LegacySketchIndex()
    for table in corpus:
        if table.table_id not in removed:
            oracle.add_table(table)
    assert_answers_like(store, oracle)
    for probe in (shared[:4], shared, ["u5_0"]):
        assert store.query(probe) == oracle.query(probe)


# ----------------------------------------------------------------------
# One sketch file per segment
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
    """The live store answers like one built from ``tables``."""
    store = live.sketch_index()
    assert store is not None
    fresh = SketchIndex()
    for table in tables:
        fresh.add_table(table)
    assert store.table_ids() == fresh.table_ids()
    assert [
        (s.table_id, s.column_index, s.cardinality, s.packed)
        for s in store.column_sketches()
    ] == [
        (s.table_id, s.column_index, s.cardinality, s.packed)
        for s in fresh.column_sketches()
    ]
    for table in tables:
        probe = [row[0] for row in table.rows]
        assert store.query(probe) == fresh.query(probe)


class Crash(Exception):
    pass


def crash(*args, **kwargs):
    raise Crash("power cut")


@pytest.mark.parametrize(
    "target", ["repro.sketch.SketchIndex.save", "repro.ingest.LiveIndex._write_manifest_locked"]
)
def test_a_crash_between_the_files_of_a_seal_loses_nothing(tmp_path, monkeypatch, target):
    """Between ``.seg`` and ``.sk``, and between ``.sk`` and the manifest:
    the WAL was not truncated, so a reopen sweeps what the seal left and
    replays the tables — postings and sketches."""
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
        assert files(tmp_path, ".sk") == ["segment-000001.sk"]
        assert reopened.indexed_tables() == {1, 2}
        assert_store_is(reopened, [make_table(1), make_table(2)])
        # ... and the replayed table seals under the swept name.
        reopened.seal()
        assert files(tmp_path, ".sk") == ["segment-000001.sk", "segment-000002.sk"]
    finally:
        reopened.close()


@pytest.mark.parametrize(
    "target",
    [
        "repro.sketch.SketchIndex.save",
        "repro.ingest.LiveIndex._write_manifest_locked",
        "pathlib.Path.unlink",
    ],
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
        # segment, each with its sketch file, and nothing else.
        segments = files(tmp_path, ".seg")
        assert segments in (
            ["segment-000001.seg", "segment-000002.seg", "segment-000003.seg"],
            ["segment-000004.seg"],
        )
        assert files(tmp_path, ".sk") == [name.replace(".seg", ".sk") for name in segments]
        assert reopened.indexed_tables() == {1, 3}
        assert_store_is(reopened, [make_table(1), make_table(3)])
    finally:
        reopened.close()


def test_a_tombstoned_table_is_not_resurrected_and_a_readded_id_reads_its_newest(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.add_table(make_table(2))
    live.seal()
    live.remove_table(1)  # tombstoned; its sketches stay in segment 1's file
    live.remove_table(2)
    live.add_table(make_table(2, version=1))  # the id comes back, other cells
    live.add_table(make_table(3))
    live.seal()  # the manifest now carries both tombstones
    old = SketchIndex.load(tmp_path, "segment-000001")
    assert old.table_ids() == {1, 2}
    live.close()

    survivors = [make_table(2, version=1), make_table(3)]
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert reopened.tombstones  # no merge purged anything yet
        assert_store_is(reopened, survivors)
        # The merge purges the masked copies from postings and sketch file.
        assert reopened.merge(0, None) is not None
        assert files(tmp_path, ".sk") == ["segment-000003.sk"]
        merged = SketchIndex.load(tmp_path, "segment-000003")
        assert merged.table_ids() == {2, 3}
        assert_store_is(reopened, survivors)
    finally:
        reopened.close()
    again = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert_store_is(again, survivors)
    finally:
        again.close()


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


def test_a_missing_sketch_file_leaves_the_store_stale(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.seal()
    live.close()
    (tmp_path / "segment-000001.sk").unlink()
    stale = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    assert stale.sketch_index() is None
    stale.close()


def test_sketch_files_cost_what_one_whole_store_file_costs(tmp_path):
    """``index_bytes_per_cell`` of a 300-table directory: the per-segment
    files (which keep a tombstoned table's sketches until a merge) within
    1 % of one file holding the store of the visible tables."""
    rng = random.Random(5)
    vocabulary = [f"w{i}" for i in range(600)]
    live = LiveIndex(config=CONFIG, directory=tmp_path / "live", fsync=False)
    compactor = Compactor(live, CompactionPolicy(max_buffer_rows=120, max_segments=4))
    for table_id in range(300):
        rows = [[rng.choice(vocabulary) for _ in range(4)] for _ in range(rng.randint(3, 9))]
        live.add_table(Table(table_id, f"t{table_id}", ["a", "b", "c", "d"], rows))
        compactor.run_once()
        if table_id % 25 == 24:
            live.remove_table(table_id - 20)
    live.seal()
    store = live.sketch_index()
    live.close()
    directory = tmp_path / "live"
    sidecars = sum(path.stat().st_size for path in directory.glob("*.sk"))
    total = sum(path.stat().st_size for path in directory.iterdir())
    whole = store.save(tmp_path / "whole", fsync=False).stat().st_size
    assert len(list(directory.glob("*.sk"))) == len(list(directory.glob("*.seg"))) > 1
    assert abs(whole - sidecars) / total < 0.01


def test_builder_and_live_store_hold_the_same_sketches(tmp_path):
    tables = [make_table(table_id) for table_id in range(6)]
    _index, built = IndexBuilder(config=CONFIG).build_with_sketches(tables)
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    for table in tables:
        live.add_table(table)
    assert [s.packed for s in live.sketch_index().column_sketches()] == [
        s.packed for s in built.column_sketches()
    ]
    live.close()
