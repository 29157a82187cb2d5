"""Tests for the persisted index format and plain-file serialisation."""

import pytest

from repro import build_index
from repro.datamodel import Table, TableCorpus
from repro.exceptions import StorageError
from repro.ingest import LiveIndex
from repro.ingest.live import read_snapshot
from repro.lake import DataLake
from repro.storage import (
    corpus_from_json,
    corpus_to_json,
    load_corpus_json,
    save_corpus_json,
    table_from_csv,
    table_to_csv,
)

from tests.helpers import fetch_items, row_keys


@pytest.fixture()
def corpus() -> TableCorpus:
    corpus = TableCorpus(name="persisted")
    corpus.add_table(
        Table(
            table_id=0,
            name="people",
            columns=["first", "last"],
            rows=[["ada", "lovelace"], ["alan", "turing"]],
        )
    )
    corpus.add_table(
        Table(table_id=2, name="gap-in-ids", columns=["x"], rows=[["1"]])
    )
    return corpus


def assert_corpora_equal(left: TableCorpus, right: TableCorpus) -> None:
    assert left.name == right.name
    assert left.table_ids() == right.table_ids()
    for table_id in left.table_ids():
        original = left.get_table(table_id)
        restored = right.get_table(table_id)
        assert original.columns == restored.columns
        assert original.rows == restored.rows
        assert original.name == restored.name


class TestLiveDirectoryIsTheIndexFormat:
    """A live-index directory is the one persisted index format."""

    def test_index_roundtrip(self, corpus, config, tmp_path):
        from repro.cli import main

        corpus_path = save_corpus_json(corpus, tmp_path / "corpus.json")
        live_dir = tmp_path / "lake"
        assert main(["index", str(corpus_path), "--live-dir", str(live_dir)]) == 0
        index = build_index(corpus, config=config)
        restored = read_snapshot(live_dir)
        assert restored.hash_function_name == "xash"
        assert restored.hash_size == config.hash_size
        assert restored.num_posting_items() == index.num_posting_items()
        assert restored.block.values == list(index.values())
        values = sorted(index.values())
        assert fetch_items(restored, values) == fetch_items(index, values)
        assert row_keys(restored) == row_keys(index)
        assert_corpora_equal(corpus, load_corpus_json(live_dir / "corpus.json"))

    def test_a_path_without_a_live_index_is_refused(self, tmp_path):
        for path in (tmp_path / "missing", tmp_path):
            with pytest.raises(StorageError, match="no manifest.json"):
                read_snapshot(path)
        assert not (tmp_path / "missing").exists()
        assert list(tmp_path.iterdir()) == []

    def test_open_refuses_a_regular_file_by_name(self, tmp_path):
        path = tmp_path / "notes.txt"
        path.write_text("not an index")
        for opener in (LiveIndex.open, read_snapshot):
            with pytest.raises(StorageError, match="is a file, not a live-index"):
                opener(path)
        assert path.read_text() == "not an index"

    def test_open_refuses_a_sqlite_index_with_the_rebuild_command(self, tmp_path):
        import sqlite3
        from contextlib import closing

        database = tmp_path / "lake.db"
        with closing(sqlite3.connect(database)) as connection:
            connection.execute("CREATE TABLE indexes (name TEXT)")
            connection.commit()
        before = database.read_bytes()
        assert before.startswith(b"SQLite format 3\x00")
        for opener in (LiveIndex.open, read_snapshot):
            with pytest.raises(StorageError) as raised:
                opener(database)
            message = str(raised.value)
            assert str(database) in message
            assert "SQLite index from an earlier release" in message
            assert "repro index CORPUS --live-dir DIR" in message
        assert database.read_bytes() == before


def _table(table_id: int) -> Table:
    return Table(
        table_id=table_id,
        name=f"t{table_id}",
        columns=["a", "b"],
        rows=[[f"v{table_id}", "shared"], [f"w{table_id}", "shared"]],
    )


class TestReadSnapshot:
    """``read_snapshot`` reads a directory its writer may be changing."""

    @pytest.fixture()
    def writer(self, config, tmp_path):
        live = LiveIndex.open(tmp_path / "lake", config=config, fsync=False)
        for table_id in range(3):
            live.add_table(_table(table_id))
        live.seal()
        for table_id in range(3, 6):
            live.add_table(_table(table_id))
        live.seal()
        for table_id in range(6, 8):
            live.add_table(_table(table_id))  # logged, not sealed
        yield live
        live.close()

    def test_the_log_is_replayed(self, writer):
        snapshot = read_snapshot(writer.directory)
        assert snapshot.indexed_tables() == set(range(8))
        assert snapshot.num_posting_items() == writer.num_posting_items()

    def test_a_seal_during_the_read_starts_it_over(self, writer, monkeypatch):
        import repro.ingest.live as live_module

        replay = live_module.replay_wal
        reads = []

        def seal_first(path):
            # The first read has mapped the two-segment manifest; the
            # writer now seals tables 6 and 7 and truncates the log.
            if not reads:
                writer.seal()
            reads.append(path)
            return replay(path)

        monkeypatch.setattr(live_module, "replay_wal", seal_first)
        snapshot = read_snapshot(writer.directory)
        assert len(reads) == 2
        assert snapshot.generation == writer.generation == 3
        assert snapshot.indexed_tables() == set(range(8))

    def test_a_merge_during_the_read_starts_it_over(self, writer, monkeypatch):
        import repro.ingest.live as live_module

        load = live_module._load_segment_index
        loads = []

        def merge_first(path):
            # The writer merges after the manifest was read, deleting the
            # segment files that manifest names.
            if not loads:
                writer.merge()
            loads.append(path.name)
            return load(path)

        monkeypatch.setattr(live_module, "_load_segment_index", merge_first)
        snapshot = read_snapshot(writer.directory)
        assert loads == ["segment-000001.seg", "segment-000003.seg"]
        assert snapshot.indexed_tables() == set(range(8))

    def test_a_directory_that_keeps_changing_is_refused(
        self, writer, monkeypatch
    ):
        import repro.ingest.live as live_module

        replay = live_module.replay_wal
        added = iter(range(100, 200))

        def seal_every_time(path):
            writer.add_table(_table(next(added)))
            writer.seal()
            return replay(path)

        monkeypatch.setattr(live_module, "replay_wal", seal_every_time)
        with pytest.raises(StorageError, match="changed during each of 5 reads"):
            read_snapshot(writer.directory)

    def test_snapshots_beside_a_running_writer_are_consistent(
        self, config, tmp_path
    ):
        """A writer thread adds tables in id order, sealing and merging as
        it goes; every snapshot read meanwhile holds exactly the first
        ``m`` tables, four postings each."""
        import sys
        import threading
        import time

        live = LiveIndex.open(tmp_path / "lake", config=config, fsync=False)
        stop = threading.Event()
        failures = []

        def write():
            try:
                for table_id in range(10_000):
                    if stop.is_set():
                        return
                    live.add_table(_table(table_id))
                    if table_id % 3 == 2:
                        live.seal()
                    if live.num_segments > 3:
                        live.merge()
            except BaseException as exc:  # reported by the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writer = threading.Thread(target=write)
        writer.start()
        snapshots = 0
        try:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                try:
                    snapshot = read_snapshot(live.directory)
                except StorageError as exc:
                    assert "changed during each of" in str(exc)
                    continue
                tables = snapshot.indexed_tables()
                assert tables == set(range(len(tables)))
                assert snapshot.num_posting_items() == 4 * len(tables)
                snapshots += 1
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            writer.join(timeout=10)
            live.close()
        assert not writer.is_alive()
        assert not failures
        assert snapshots > 0

    def test_a_missing_segment_is_refused(self, writer):
        (writer.directory / "segment-000001.seg").unlink()
        with pytest.raises(StorageError, match="segment-000001.seg"):
            read_snapshot(writer.directory)

    def test_nothing_is_written(self, writer):
        """The recovery a writer's open runs — orphan sweep, torn-tail
        repair, log opened for append — is left to the writer."""
        directory = writer.directory
        (directory / "segment-000099.seg").write_bytes(b"orphan")
        (directory / "manifest.json.tmp").write_text("{")
        with (directory / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op":"add_table","seq":99,"tab')
        before = {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.iterdir()
        }
        snapshot = read_snapshot(directory)
        assert snapshot.indexed_tables() == set(range(8))
        assert {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.iterdir()
        } == before


class TestJsonSerialization:
    def test_json_roundtrip(self, corpus, tmp_path):
        path = save_corpus_json(corpus, tmp_path / "corpus.json")
        restored = load_corpus_json(path)
        assert_corpora_equal(corpus, restored)

    def test_in_memory_payload_roundtrip(self, corpus):
        assert_corpora_equal(corpus, corpus_from_json(corpus_to_json(corpus)))

    def test_malformed_payload(self):
        with pytest.raises(StorageError):
            corpus_from_json({"tables": []})

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_corpus_json(tmp_path / "missing.json")

    # What the decoder raised used to escape as a traceback of its own
    # type; each is now a StorageError naming the file.
    def test_non_json_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("id,name\n1,ada\n", encoding="utf-8")
        with pytest.raises(StorageError, match=f"cannot read corpus file {path}"):
            load_corpus_json(path)

    def test_non_utf8_file_is_refused_by_name(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_bytes(b'{"name": "caf\xe9"}')
        with pytest.raises(StorageError, match=f"cannot read corpus file {path}"):
            load_corpus_json(path)

    def test_directory_is_refused_by_name(self, tmp_path):
        with pytest.raises(
            StorageError, match=f"cannot read corpus file {tmp_path}"
        ):
            load_corpus_json(tmp_path)


class TestCsvSerialization:
    def test_csv_roundtrip(self, corpus, tmp_path):
        table = corpus.get_table(0)
        path = table_to_csv(table, tmp_path / "people.csv")
        restored = table_from_csv(7, path)
        assert restored.columns == table.columns
        assert restored.rows == table.rows
        assert restored.table_id == 7

    def test_load_directory(self, corpus, tmp_path):
        for table in corpus:
            table_to_csv(table, tmp_path / f"{table.name}.csv")
        loaded = DataLake.from_directory(tmp_path, name="csvs").corpus
        assert len(loaded) == len(corpus)

    def test_quoted_values_survive_the_directory_round_trip(self, tmp_path):
        """Separators, quotes, line breaks, non-ASCII text and missing
        cells come back from a directory of CSV files unchanged."""
        table = Table(
            table_id=0,
            name="messy",
            columns=["name", "note", "city"],
            rows=[
                ["smith, john", 'the "big" apple', "münchen"],
                ["o'neil", "line one\nline two", ""],
                ["", ",", "são paulo"],
            ],
        )
        table_to_csv(table, tmp_path / "messy.csv")
        restored = DataLake.from_directory(tmp_path).table_by_source("messy")
        assert restored.columns == table.columns
        assert restored.rows == table.rows

    def test_errors(self, tmp_path):
        with pytest.raises(StorageError):
            table_from_csv(0, tmp_path / "missing.csv")
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(StorageError):
            table_from_csv(0, empty)
        with pytest.raises(StorageError):
            DataLake.from_directory(tmp_path / "not-a-dir")

    def test_non_utf8_csv_is_refused_by_name(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"city\nm\xfcnchen\n")
        with pytest.raises(StorageError, match=f"cannot read CSV file {path}"):
            table_from_csv(0, path)
