"""The sketch tier on the write path: one-pass signatures, byte-keyed
buckets, one sketch file per segment.

* ``SketchIndex.add_table`` signs all columns of a table in one pass; the
  signatures must equal the per-column ``minhash_signature`` and the stdlib
  loop (``tests/helpers.py::legacy_minhash_signature``) bit for bit, for
  whatever a table can hold (columns without values, one value, duplicates,
  one column, no rows).
* Buckets are keyed by signature bytes and hold a bare table id until a
  second table shares them; ``candidate_tables`` / ``query`` must answer
  like the tuple-keyed set buckets they replaced
  (``tests/helpers.py::LegacySketchIndex``) over add / remove / re-add
  histories — a bucket going through 1, 2, 1 and 0 members.
* A live directory holds one ``segment-NNNNNN.sk`` beside every ``.seg``:
  crashes between the files of a seal or a merge, tombstoned tables, re-added
  ids, the migration of the whole-store pair older builds wrote, and the size
  of it all against that pair.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import MateConfig, SketchIndex, Table
from repro.index import IndexBuilder
from repro.ingest import CompactionPolicy, Compactor, LiveIndex
from repro.sketch import minhash_signature, permutation_params
from repro.sketch.minhash import column_signatures, hash_value, pack_signature

from tests.helpers import (
    LegacySketchIndex,
    legacy_minhash_signature,
    write_legacy_sketch_pair,
)

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


# ----------------------------------------------------------------------
# One MinHash pass per table
# ----------------------------------------------------------------------
def stdlib_signature(values, a, b) -> tuple[int, ...]:
    return legacy_minhash_signature(sorted({hash_value(v) for v in values}), a, b)


@given(table=tables())
@settings(max_examples=80, deadline=None)
def test_one_pass_signatures_equal_the_per_column_ones(table):
    a, b = permutation_params(128, 1_000_003)
    store = SketchIndex()
    added = store.add_table(table)
    expected = {}
    for column_index in range(table.num_columns):
        values = table.distinct_column_values(column_index)
        if values:
            signature = minhash_signature(values, a, b)
            assert signature == stdlib_signature(values, a, b)
            expected[column_index] = (len(values), signature)
    assert added == len(expected) == len(store)
    for column_index, (cardinality, signature) in expected.items():
        sketch = store.column_sketch(table.table_id, column_index)
        assert (sketch.cardinality, sketch.signature) == (cardinality, signature)
        assert sketch.packed == pack_signature(signature)


@given(
    columns=st.lists(st.sets(st.sampled_from(VOCABULARY)), max_size=6),
    bound=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_column_signatures_sign_empty_columns_empty(columns, bound):
    """An empty column is the all-``EMPTY_SLOT`` signature wherever it sits,
    a broadcast cut included — not its neighbour's, and no ``IndexError``."""
    a, b = permutation_params(16, 7)
    expected = [pack_signature(stdlib_signature(values, a, b)) for values in columns]
    assert column_signatures(columns, a, b) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.sketch.minhash._BROADCAST_VALUES", bound)
        assert column_signatures(columns, a, b) == expected


def test_a_broadcast_is_cut_at_whole_columns(monkeypatch):
    a, b = permutation_params(128, 1_000_003)
    columns = [{f"v{i}" for i in range(n)} for n in (5, 1, 9, 2, 2, 7)]
    whole = column_signatures(columns, a, b)
    monkeypatch.setattr("repro.sketch.minhash._BROADCAST_VALUES", 8)
    assert column_signatures(columns, a, b) == whole
    assert whole == [pack_signature(minhash_signature(c, a, b)) for c in columns]
    assert column_signatures([], a, b) == []


# ----------------------------------------------------------------------
# Byte-keyed buckets against the tuple-keyed sets
# ----------------------------------------------------------------------
@st.composite
def bucket_histories(draw):
    """Adds, removes and re-adds over four ids whose tables overlap heavily
    (shared buckets), each move followed by a probe."""
    moves = []
    live: set[int] = set()
    for _ in range(draw(st.integers(1, 12))):
        table_id = draw(st.integers(1, 4))
        if table_id in live and draw(st.booleans()):
            moves.append(("remove", table_id))
            live.discard(table_id)
        elif table_id not in live:
            moves.append(("add", draw(tables(table_id))))
            live.add(table_id)
    return moves


@given(history=bucket_histories())
@settings(max_examples=80, deadline=None)
def test_buckets_answer_like_the_tuple_keyed_sets(history):
    store, oracle = SketchIndex(), LegacySketchIndex()
    probes = [["ada", "alan"], ["漢字"], ["42", "x y", "grace"], ["nobody"]]
    for kind, payload in history:
        if kind == "add":
            assert store.add_table(payload) == oracle.add_table(payload)
        else:
            assert store.remove_table(payload) == oracle.remove_table(payload)
        assert store.table_ids() == oracle.table_ids()
        for probe in probes:
            signature = store.signature(probe)
            assert store.candidate_tables(signature) == oracle.candidate_tables(signature)
            assert store.query(probe) == oracle.query(probe)
            assert store.query(probe, threshold=0.3, max_candidates=2) == oracle.query(
                probe, threshold=0.3, max_candidates=2
            )
    for table_id in list(store.table_ids()):
        store.remove_table(table_id)
    # Every bucket went back to nothing: no member, no empty set left behind.
    assert all(not bucket for bucket in store._buckets)


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


def test_the_whole_store_pair_of_an_older_build_migrates_once(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    for table_id in (1, 2):
        live.add_table(make_table(table_id))
    live.seal()
    live.add_table(make_table(3))
    live.seal()
    live.remove_table(2)  # behind the checkpoint: the WAL replays it
    live.add_table(make_table(4))  # WAL only
    live.close()
    # What the older build left: the pair as of the last seal, no .sk file.
    whole = SketchIndex()
    for table_id in (1, 2, 3):
        whole.add_table(make_table(table_id))
    write_legacy_sketch_pair(whole, tmp_path)
    for path in tmp_path.glob("*.sk"):
        path.unlink()

    survivors = [make_table(table_id) for table_id in (1, 3, 4)]
    migrated = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert files(tmp_path, ".sk") == ["segment-000001.sk", "segment-000002.sk"]
        assert not (tmp_path / "sketches.json").exists()
        assert not (tmp_path / "sketches.bin").exists()
        # Dealt by table id: each file holds its segment's tables.
        assert SketchIndex.load(tmp_path, "segment-000001").table_ids() == {1, 2}
        assert SketchIndex.load(tmp_path, "segment-000002").table_ids() == {3}
        assert_store_is(migrated, survivors)
    finally:
        migrated.close()
    stamps = {path.name: path.stat().st_mtime_ns for path in tmp_path.glob("*.sk")}
    again = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    try:
        assert {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.sk")} == stamps
        assert_store_is(again, survivors)
    finally:
        again.close()


def test_a_corrupt_pair_or_a_half_finished_migration(tmp_path):
    live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    live.add_table(make_table(1))
    live.seal()
    live.close()
    # A crash after the manifest of the pair went: the data file is swept.
    (tmp_path / "sketches.bin").write_bytes(b"left behind")
    reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    assert not (tmp_path / "sketches.bin").exists()
    assert_store_is(reopened, [make_table(1)])
    reopened.close()
    # A pair that cannot be read leaves the store stale, never guessed.
    (tmp_path / "segment-000001.sk").unlink()
    (tmp_path / "sketches.json").write_text("{not json", encoding="utf-8")
    stale = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
    assert stale.sketch_index() is None
    stale.close()


def test_sketch_files_cost_what_the_whole_store_pair_cost(tmp_path):
    """``index_bytes_per_cell`` of a 300-table directory: the per-segment
    files (which keep a tombstoned table's sketches until a merge) within
    1 % of the pair the store of the visible tables would be."""
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
    pair = tmp_path / "pair"
    pair.mkdir()
    write_legacy_sketch_pair(store, pair)
    whole = sum(path.stat().st_size for path in pair.iterdir())
    assert len(list(directory.glob("*.sk"))) == len(list(directory.glob("*.seg"))) > 1
    assert abs((total - sidecars + whole) - total) / total < 0.01


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
