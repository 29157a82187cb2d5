"""Lifecycle tests for mmap-backed ``.seg`` segments (repro.storage.paged).

Covers the whole contract of the persisted columnar segment format:

* write / load round trip — fetch output, super keys, and discovery results
  byte-identical to the in-memory index the segment was written from, with
  the packed kernel input served as zero-copy views into the mapping;
* a *second process* mapping the same file sees identical postings (the
  shared-page claim, proven with a real subprocess);
* explicit close semantics — reads after :meth:`close` raise
  :class:`~repro.exceptions.IndexClosedError`, close is idempotent;
* read-only semantics — every mutation raises ``IndexError_``;
* structural damage — truncation, wrong magic, torn footer, checksum
  mismatch, a region outside the payload or of the wrong length, offsets
  that do not partition their column, text that is not UTF-8, a file of the
  previous format version or of a foreign byte order — raises the typed
  :class:`~repro.exceptions.SegmentFormatError`, never garbage output;
* oversize (spilled) super keys survive the round trip;
* the live-index directory: seal persists ``.seg`` files, reopening
  recovers identical fetches, legacy JSON segment files keep loading, and
  what a crash leaves beside the manifest's files is removed at open.
"""

from __future__ import annotations

import json
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import LiveIndex, MateConfig, MateDiscovery, Table, TableCorpus, build_index
from repro.datamodel import QueryTable
from repro.index import numpy_available, use_kernel
from repro.ingest import IngestBuffer
from repro.exceptions import (
    IndexClosedError,
    IndexError_,
    SegmentFormatError,
    StorageError,
)
from repro.storage import (
    SEGMENT_MAGIC,
    SEGMENT_SUFFIX,
    MappedSegmentIndex,
    load_segment,
    write_segment,
)
from repro.storage.serialization import save_index_json

from tests.helpers import assert_blocks_equal, legacy_ingest_buffer

CONFIG = MateConfig(
    hash_size=128, k=3, expected_unique_values=1000, index_layout="columnar"
)

COLUMNS = ["name", "city", "team"]

PROBES = [f"n{i}" for i in range(13)] + [f"c{i}" for i in range(13)] + ["absent"]


def make_corpus(seed: int = 7, num_tables: int = 6) -> TableCorpus:
    rng = random.Random(seed)
    corpus = TableCorpus(name="seg")
    for table_id in range(num_tables):
        rows = [
            [f"n{rng.randint(0, 12)}", f"c{rng.randint(0, 12)}", f"t{rng.randint(0, 12)}"]
            for _ in range(rng.randint(2, 8))
        ]
        corpus.add_table(
            Table(table_id=table_id, name=f"t{table_id}", columns=COLUMNS, rows=rows)
        )
    return corpus


def make_query(seed: int = 3) -> QueryTable:
    rng = random.Random(seed)
    table = Table(
        table_id=9_999,
        name="q",
        columns=["name", "city"],
        rows=[[f"n{rng.randint(0, 12)}", f"c{rng.randint(0, 12)}"] for _ in range(5)],
    )
    return QueryTable(table=table, key_columns=["name", "city"])


def fetch_signature(index) -> list:
    """Order-preserving, JSON-able dump of everything a fetch can see."""
    return [
        [
            item.value,
            item.table_id,
            item.column_index,
            item.row_index,
            item.super_key,
        ]
        for item in index.fetch(PROBES)
    ]


FOOTER = struct.Struct("<QQI4s")


def rewrite(path: Path, target: Path, *, directory=None, payload=None) -> Path:
    """Copy a segment file to ``target``, changed but with a valid checksum.

    ``directory(dict)`` edits the parsed directory in place; ``payload``
    ``(bytearray, dict)`` edits the region bytes given the directory.
    """
    from zlib import crc32

    data = bytearray(path.read_bytes())
    offset, length, _crc, magic = FOOTER.unpack(bytes(data[-FOOTER.size :]))
    parsed = json.loads(bytes(data[offset : offset + length]))
    if payload is not None:
        payload(data, parsed)
    if directory is not None:
        directory(parsed)
    encoded = json.dumps(parsed, separators=(",", ":")).encode("utf-8")
    footer = FOOTER.pack(offset, len(encoded), crc32(encoded) & 0xFFFFFFFF, magic)
    target.write_bytes(bytes(data[:offset]) + encoded + footer)
    return target


@pytest.fixture()
def segment(tmp_path):
    corpus = make_corpus()
    index = build_index(corpus, config=CONFIG)
    path = write_segment(index, tmp_path / f"seg-0001{SEGMENT_SUFFIX}", fsync=False)
    return corpus, index, path


class TestRoundTrip:
    def test_fetch_identity(self, segment):
        _corpus, index, path = segment
        mapped = load_segment(path)
        try:
            assert isinstance(mapped, MappedSegmentIndex)
            assert mapped.hash_function_name == index.hash_function_name
            assert mapped.hash_size == index.hash_size
            assert fetch_signature(mapped) == fetch_signature(index)
            assert sorted(mapped.iter_super_keys()) == sorted(
                index.iter_super_keys()
            )
            assert mapped.indexed_tables() == index.indexed_tables()
        finally:
            mapped.close()

    def test_blocks_carry_zero_copy_packed_views(self, segment):
        _corpus, _index, path = segment
        mapped = load_segment(path)
        try:
            blocks = mapped.fetch_batch(PROBES)
            assert blocks
            for block in blocks:
                # The kernels' input: packed big-endian keys, zero copy.
                assert isinstance(block.super_key_bytes, memoryview)
                assert block.key_width == CONFIG.hash_size // 8
                assert isinstance(block.table_ids, memoryview)
        finally:
            mapped.close()

    def test_fetch_blocks_equal_the_in_memory_index(self, segment):
        _corpus, index, path = segment
        mapped = load_segment(path)
        try:
            assert list(mapped.values()) == list(index.values())
            assert_blocks_equal(
                mapped.fetch_batch(PROBES), index.fetch_batch(PROBES)
            )
            # Warm: the memoised views serve the same blocks again.
            assert_blocks_equal(
                mapped.fetch_batch(PROBES), index.fetch_batch(PROBES)
            )
            assert mapped.num_posting_items() == index.num_posting_items()
            assert len(mapped) == len(index)
            for probe in PROBES:
                assert mapped.posting_list_length(probe) == (
                    index.posting_list_length(probe)
                )
                assert (probe in mapped) == (probe in index)
        finally:
            mapped.close()

    def test_sealed_buffer_serves_the_buffer_blocks_from_the_heap(self, tmp_path):
        buffer = IngestBuffer(config=CONFIG)
        loop = legacy_ingest_buffer(config=CONFIG)
        for seq, table in enumerate(make_corpus(seed=5), start=1):
            buffer.add_table(table, seq)
            loop.add_table(table, seq)
        before = buffer.index.fetch_batch(PROBES)
        assert_blocks_equal(before, loop.index.fetch_batch(PROBES))
        sealed = buffer.seal()
        assert isinstance(sealed, MappedSegmentIndex) and sealed.path is None
        assert_blocks_equal(sealed.fetch_batch(PROBES), before)
        assert isinstance(sealed.fetch_batch(PROBES)[0].table_ids, memoryview)
        # An already-flat segment is written as it is and reads back equal.
        path = write_segment(sealed, tmp_path / "sealed.seg", fsync=False)
        mapped = load_segment(path)
        try:
            assert_blocks_equal(mapped.fetch_batch(PROBES), before)
        finally:
            mapped.close()
        # No table was dropped: the bytes are the per-cell loop buffer's.
        assert path.read_bytes() == write_segment(
            loop.index, tmp_path / "buffer.seg", fsync=False
        ).read_bytes()

    def test_writing_twice_gives_identical_bytes(self, segment, tmp_path):
        _corpus, index, path = segment
        again = write_segment(index, tmp_path / "again.seg", fsync=False)
        assert again.read_bytes() == Path(path).read_bytes()
        assert not list(tmp_path.glob("*.tmp"))

    def test_threads_slicing_the_same_values_at_once(self, segment):
        # No lock guards the view memo: racing threads build equal views and
        # the memo keeps either, so every thread reads what one would.
        import threading

        _corpus, index, path = segment
        expected = fetch_signature(index)
        mapped = load_segment(path)
        results: list = []
        barrier = threading.Barrier(8)

        def reader():
            barrier.wait(timeout=30)
            results.append(fetch_signature(mapped))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
            mapped.close()
        assert results == [expected] * 8

    def test_non_ascii_and_surrogate_values_round_trip(self, tmp_path):
        values = ["żółw", "日本語", "a\x00b", "\udc80lone", "🙂", "plain"]
        index = repro.index.InvertedIndex(hash_size=128)
        for position, value in enumerate(values):
            index.add_posting(value, 1, 0, position)
            index.set_super_key(1, position, position + 1)
        path = write_segment(index, tmp_path / "text.seg", fsync=False)
        mapped = load_segment(path)
        try:
            assert list(mapped.values()) == values
            assert mapped.fetch(values) == index.fetch(values)
        finally:
            mapped.close()

    @pytest.mark.skipif(not numpy_available(), reason="the batch path needs numpy")
    def test_discovery_runs_the_batch_path(self, segment):
        # The packed key buffers survived the format: request-level arrays
        # are built straight from the mapped columns.
        corpus, _index, path = segment
        mapped = load_segment(path)
        try:
            with use_kernel("numpy"):
                result = MateDiscovery(corpus, mapped, config=CONFIG).discover(
                    make_query()
                )
            assert result.plan.execution_path == "batch", (
                result.plan.table_path_reason
            )
        finally:
            mapped.close()

    def test_discovery_results_identical(self, segment):
        corpus, index, path = segment
        mapped = load_segment(path)
        try:
            query = make_query()
            live = MateDiscovery(corpus, index, config=CONFIG).discover(query)
            cold = MateDiscovery(corpus, mapped, config=CONFIG).discover(query)
            assert cold.result_tuples() == live.result_tuples()
            mine = cold.counters.as_dict()
            theirs = live.counters.as_dict()
            for volatile in ("runtime_seconds", "stages"):
                mine.pop(volatile, None)
                theirs.pop(volatile, None)
            assert mine == theirs
        finally:
            mapped.close()

    def test_second_process_sees_identical_postings(self, segment):
        _corpus, index, path = segment
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        script = (
            "import json, sys\n"
            f"sys.path.insert(0, {src_dir!r})\n"
            "from repro.storage import load_segment\n"
            f"index = load_segment({str(path)!r})\n"
            f"probes = {PROBES!r}\n"
            "items = [[i.value, i.table_id, i.column_index, i.row_index,"
            " i.super_key] for i in index.fetch(probes)]\n"
            "print(json.dumps(items))\n"
            "index.close()\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == fetch_signature(index)

    def test_oversize_spilled_key_round_trip(self, tmp_path):
        corpus = make_corpus(seed=1, num_tables=2)
        index = build_index(corpus, config=CONFIG)
        wide = 1 << 300  # far beyond the 128-bit packed slots
        index.set_super_key(0, 0, wide)
        path = write_segment(index, tmp_path / f"wide{SEGMENT_SUFFIX}", fsync=False)
        mapped = load_segment(path)
        try:
            assert sorted(mapped.iter_super_keys()) == sorted(
                index.iter_super_keys()
            )
            assert fetch_signature(mapped) == fetch_signature(index)
        finally:
            mapped.close()

    @pytest.mark.parametrize("rows", [False, True], ids=["empty", "rows-only"])
    def test_index_without_postings_round_trips(self, tmp_path, rows):
        # A shard is written with the central row store attached, so a block
        # may hold rows and not one posting; the numpy lane's key matrices
        # are then (0, width), which memoryview refuses to cast unflattened.
        index = repro.index.InvertedIndex(hash_size=128)
        if rows:
            index.set_super_key(4, 0, 0b101)
            index.set_super_key(4, 1, 1 << 300)  # spilled
        written = []
        for lane in ["fallback"] + (["numpy"] if numpy_available() else []):
            with use_kernel(lane):
                path = write_segment(index, tmp_path / f"{lane}.seg", fsync=False)
            written.append(path.read_bytes())
            mapped = load_segment(path)
            try:
                assert len(mapped) == 0 and mapped.num_posting_items() == 0
                assert list(mapped.values()) == []
                assert mapped.fetch_batch(PROBES) == []
                assert sorted(mapped.iter_super_keys()) == sorted(
                    index.iter_super_keys()
                )
                assert mapped.indexed_tables() == index.indexed_tables()
            finally:
                mapped.close()
        assert written == written[:1] * len(written)


class TestCloseSemantics:
    def test_reads_after_close_raise_typed_error(self, segment):
        _corpus, _index, path = segment
        mapped = load_segment(path)
        mapped.close()
        with pytest.raises(IndexClosedError):
            mapped.fetch(["n1"])
        with pytest.raises(IndexClosedError):
            mapped.fetch_batch(["n1"])
        with pytest.raises(IndexClosedError):
            mapped.add_posting("n1", 0, 0, 0)

    def test_close_is_idempotent(self, segment):
        _corpus, _index, path = segment
        mapped = load_segment(path)
        mapped.close()
        mapped.close()

    def test_close_with_outstanding_blocks(self, segment):
        # A fetched block pins mapping buffers; close() must still succeed
        # (the mapping is released when the last view dies).
        _corpus, _index, path = segment
        mapped = load_segment(path)
        blocks = mapped.fetch_batch(PROBES)
        assert blocks
        mapped.close()
        assert len(blocks[0]) > 0  # the snapshot stays readable

    def test_unlink_while_mapped_keeps_serving(self, segment):
        # POSIX semantics the live index's compaction relies on: unlinking
        # a mapped segment must not disturb readers of the open mapping.
        _corpus, index, path = segment
        mapped = load_segment(path)
        try:
            Path(path).unlink()
            assert fetch_signature(mapped) == fetch_signature(index)
        finally:
            mapped.close()


class TestReadOnly:
    def test_every_mutation_raises(self, segment):
        _corpus, _index, path = segment
        mapped = load_segment(path)
        try:
            with pytest.raises(IndexError_):
                mapped.add_posting("n1", 0, 0, 0)
            with pytest.raises(IndexError_):
                mapped.set_super_key(0, 0, 1)
            with pytest.raises(IndexError_):
                mapped.or_into_super_key(0, 0, 1)
            with pytest.raises(IndexError_):
                mapped.remove_table(0)
            with pytest.raises(IndexError_):
                mapped.remove_row(0, 0)
            with pytest.raises(IndexError_):
                mapped.remove_column(0, 0)
        finally:
            mapped.close()


class TestStructuralDamage:
    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_segment(tmp_path / "nope.seg")

    def test_too_small_file(self, tmp_path):
        path = tmp_path / "tiny.seg"
        path.write_bytes(b"x")
        with pytest.raises(SegmentFormatError, match="truncated"):
            load_segment(path)

    def test_wrong_leading_magic(self, segment, tmp_path):
        _corpus, _index, path = segment
        data = bytearray(Path(path).read_bytes())
        data[:8] = b"NOTASEGM"
        bad = tmp_path / "magic.seg"
        bad.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError, match="leading magic"):
            load_segment(bad)

    def test_truncated_file_is_a_torn_footer(self, segment, tmp_path):
        _corpus, _index, path = segment
        data = Path(path).read_bytes()
        torn = tmp_path / "torn.seg"
        torn.write_bytes(data[: len(data) // 2])
        with pytest.raises(SegmentFormatError):
            load_segment(torn)

    def test_flipped_directory_byte_fails_checksum(self, segment, tmp_path):
        _corpus, _index, path = segment
        data = bytearray(Path(path).read_bytes())
        footer = struct.Struct("<QQI4s")
        directory_offset, _length, _crc, _magic = footer.unpack(
            bytes(data[-footer.size :])
        )
        data[directory_offset] ^= 0xFF
        bad = tmp_path / "crc.seg"
        bad.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError, match="checksum"):
            load_segment(bad)

    def test_magic_prefix_alone_is_rejected(self, tmp_path):
        path = tmp_path / "husk.seg"
        path.write_bytes(SEGMENT_MAGIC + b"\x00" * 64)
        with pytest.raises(SegmentFormatError):
            load_segment(path)

    @pytest.mark.parametrize("keep", [0.05, 0.3, 0.6, 0.9, -1])
    def test_truncated_anywhere(self, segment, tmp_path, keep):
        _corpus, _index, path = segment
        data = Path(path).read_bytes()
        cut = len(data) - 1 if keep == -1 else int(len(data) * keep)
        torn = tmp_path / "cut.seg"
        torn.write_bytes(data[:cut])
        with pytest.raises(SegmentFormatError):
            load_segment(torn)

    def test_region_past_the_payload(self, segment, tmp_path):
        _corpus, _index, path = segment

        def move(directory):
            offset, length = directory["regions"]["row_keys"]
            directory["regions"]["row_keys"] = [offset + (1 << 20), length]

        bad = rewrite(Path(path), tmp_path / "past.seg", directory=move)
        with pytest.raises(SegmentFormatError, match="outside the payload"):
            load_segment(bad)

    def test_region_length_disagreeing_with_the_counts(self, segment, tmp_path):
        _corpus, _index, path = segment

        def shorten(directory):
            directory["regions"]["table_ids"][1] -= 8

        bad = rewrite(Path(path), tmp_path / "short.seg", directory=shorten)
        with pytest.raises(SegmentFormatError, match="counts"):
            load_segment(bad)

        def inflate(directory):
            directory["counts"]["postings"] += 1

        bad = rewrite(Path(path), tmp_path / "count.seg", directory=inflate)
        with pytest.raises(SegmentFormatError, match="counts"):
            load_segment(bad)

    def test_missing_region_is_a_malformed_directory(self, segment, tmp_path):
        _corpus, _index, path = segment
        bad = rewrite(
            Path(path),
            tmp_path / "gone.seg",
            directory=lambda directory: directory["regions"].pop("row_keys"),
        )
        with pytest.raises(SegmentFormatError, match="malformed directory"):
            load_segment(bad)

    @pytest.mark.parametrize("region", ["posting_offsets", "value_offsets"])
    @pytest.mark.parametrize("damage", ["non_monotone", "short", "empty_list"])
    def test_offsets_that_do_not_partition(self, segment, tmp_path, region, damage):
        _corpus, _index, path = segment

        def corrupt(data, directory):
            offset, length = directory["regions"][region]
            words = struct.Struct(f"={length // 8}q")
            bounds = list(words.unpack_from(data, offset))
            if damage == "non_monotone":
                bounds[1], bounds[2] = bounds[2], bounds[1]
            elif damage == "short":
                bounds[-1] -= 1
            else:
                bounds[2] = bounds[1]
            words.pack_into(data, offset, *bounds)

        bad = rewrite(Path(path), tmp_path / "offsets.seg", payload=corrupt)
        with pytest.raises(SegmentFormatError, match="do not partition"):
            load_segment(bad)

    def test_invalid_utf8_in_the_vocabulary(self, segment, tmp_path):
        _corpus, _index, path = segment

        def corrupt(data, directory):
            data[directory["regions"]["value_text"][0]] = 0xFF

        bad = rewrite(Path(path), tmp_path / "utf8.seg", payload=corrupt)
        with pytest.raises(SegmentFormatError, match="UTF-8"):
            load_segment(bad)

    def test_duplicate_value_in_the_vocabulary(self, segment, tmp_path):
        _corpus, index, path = segment
        first, second = list(index.values())[:2]
        assert len(first) == len(second)

        def corrupt(data, directory):
            offset = directory["regions"]["value_text"][0]
            data[offset + len(first) : offset + 2 * len(first)] = first.encode()

        bad = rewrite(Path(path), tmp_path / "twice.seg", payload=corrupt)
        with pytest.raises(SegmentFormatError, match="twice"):
            load_segment(bad)

    def test_previous_format_version_is_refused_by_name(self, tmp_path):
        path = tmp_path / "v1.seg"
        path.write_bytes(b"MATESEG1" + b"\x00" * 64)
        with pytest.raises(SegmentFormatError, match="MATESEG1"):
            load_segment(path)

    def test_unsupported_directory_version(self, segment, tmp_path):
        _corpus, _index, path = segment

        def bump(directory):
            directory["format_version"] = 3

        bad = rewrite(Path(path), tmp_path / "v3.seg", directory=bump)
        with pytest.raises(SegmentFormatError, match="format version 3"):
            load_segment(bad)

    def test_foreign_byte_order_is_refused_by_name(self, segment, tmp_path):
        _corpus, _index, path = segment
        foreign = "big" if sys.byteorder == "little" else "little"

        def swap(directory):
            directory["byteorder"] = foreign

        bad = rewrite(Path(path), tmp_path / "order.seg", directory=swap)
        with pytest.raises(SegmentFormatError, match=f"'{foreign}' byte order"):
            load_segment(bad)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        index = build_index(make_corpus(), config=CONFIG)
        monkeypatch.setattr(
            "repro.storage.paged.os.fsync",
            lambda _fd: (_ for _ in ()).throw(OSError("disk full")),
        )
        with pytest.raises(OSError, match="disk full"):
            write_segment(index, tmp_path / "full.seg", fsync=True)
        assert list(tmp_path.iterdir()) == []


class TestLiveIndexSegments:
    def make_table(self, table_id: int, seed: int) -> Table:
        rng = random.Random(seed)
        rows = [
            [f"n{rng.randint(0, 12)}", f"c{rng.randint(0, 12)}", f"t{rng.randint(0, 12)}"]
            for _ in range(rng.randint(2, 6))
        ]
        return Table(
            table_id=table_id, name=f"t{table_id}", columns=COLUMNS, rows=rows
        )

    def test_seal_persists_binary_segments(self, tmp_path):
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        live.add_table(self.make_table(1, 11))
        live.seal()
        live.close()
        seg_files = sorted(tmp_path.glob(f"*{SEGMENT_SUFFIX}"))
        assert len(seg_files) == 1
        assert seg_files[0].read_bytes()[:8] == SEGMENT_MAGIC
        assert not list(tmp_path.glob("segment-*.json"))

    def test_reopened_directory_serves_identical_fetches(self, tmp_path):
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        for table_id in (1, 2, 3):
            live.add_table(self.make_table(table_id, table_id))
            if table_id != 3:
                live.seal()
        expected = [list(map(list, live.fetch([probe]))) for probe in PROBES]
        live.close()
        reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            assert [
                list(map(list, reopened.fetch([probe]))) for probe in PROBES
            ] == expected
        finally:
            reopened.close()

    def test_merge_drops_stale_segment_files(self, tmp_path):
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        for table_id in (1, 2):
            live.add_table(self.make_table(table_id, table_id))
            live.seal()
        assert len(list(tmp_path.glob(f"*{SEGMENT_SUFFIX}"))) == 2
        assert live.merge(0, None) is not None
        assert len(list(tmp_path.glob(f"*{SEGMENT_SUFFIX}"))) == 1
        live.close()

    def test_merge_of_fully_tombstoned_segments_persists_an_empty_one(
        self, tmp_path
    ):
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        for table_id in (1, 2):
            live.add_table(self.make_table(table_id, table_id))
            live.seal()
        live.remove_table(1)
        live.remove_table(2)
        merged = live.merge(0, None)
        assert merged is not None and len(merged) == 0
        assert live.fetch(PROBES) == [] and live.indexed_tables() == set()
        live.close()
        reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            self.directory_matches_manifest(tmp_path)
            assert reopened.fetch(PROBES) == []
            reopened.add_table(self.make_table(1, 1))
            assert reopened.indexed_tables() == {1}
        finally:
            reopened.close()

    def directory_matches_manifest(self, directory: Path) -> None:
        manifest = json.loads((directory / "manifest.json").read_text("utf-8"))
        named = {entry["file"] for entry in manifest["segments"]}
        # Every segment has its sketch file beside it, and nothing else does.
        named |= {name.replace(SEGMENT_SUFFIX, ".sk") for name in named}
        assert {
            path.name for path in directory.iterdir()
            if path.name.startswith("segment-") or path.name.endswith(".tmp")
        } == named

    def rebuilt_fetches(self, live: LiveIndex, tables: dict[int, Table]) -> list:
        order = sorted(live.table_sequences().items(), key=lambda kv: kv[1])
        bulk = build_index(
            TableCorpus(name="rebuilt", tables=[tables[tid] for tid, _ in order]),
            config=CONFIG,
        )
        return [list(map(list, bulk.fetch([probe]))) for probe in PROBES]

    @pytest.mark.parametrize("crash_in", ["first seal", "seal", "merge"])
    def test_crash_in_the_manifest_write_leaves_nothing_behind(
        self, tmp_path, monkeypatch, crash_in
    ):
        tables = {
            table_id: self.make_table(table_id, table_id) for table_id in (1, 2, 3)
        }
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        sealed = 0 if crash_in == "first seal" else 2
        for table_id in (1, 2):
            live.add_table(tables[table_id])
            if sealed:
                live.seal()
        live.add_table(tables[3])

        def crash(self):
            raise OSError("power cut")

        monkeypatch.setattr(LiveIndex, "_write_manifest_locked", crash)
        with pytest.raises(OSError, match="power cut"):
            if crash_in == "merge":
                live.merge(0, None)
            else:
                live.seal()
        monkeypatch.undo()
        # The segment file made it under its final name; nothing names it.
        assert len(list(tmp_path.glob(f"segment-*{SEGMENT_SUFFIX}"))) == sealed + 1
        (tmp_path / "segment-000099.seg.tmp").write_bytes(b"half a write")
        # The process state is abandoned: no close().

        reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            self.directory_matches_manifest(tmp_path)
            assert reopened.num_segments == sealed
            assert reopened.indexed_tables() == {1, 2, 3}
            assert [
                list(map(list, reopened.fetch([probe]))) for probe in PROBES
            ] == self.rebuilt_fetches(reopened, tables)
        finally:
            reopened.close()

    def test_directory_without_a_manifest_is_swept_too(self, tmp_path):
        # A crash before the very first manifest write: no manifest names
        # nothing, so a full segment file and a half-written one both go.
        write_segment(
            build_index(make_corpus(), config=CONFIG),
            tmp_path / f"segment-000001{SEGMENT_SUFFIX}",
            fsync=False,
        )
        (tmp_path / "manifest.json.tmp").write_bytes(b'{"format_ver')
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            self.directory_matches_manifest(tmp_path)
            assert live.num_segments == 0 and live.indexed_tables() == set()
        finally:
            live.close()

    def test_crash_before_a_merge_unlinks_the_superseded_files(
        self, tmp_path, monkeypatch
    ):
        tables = {
            table_id: self.make_table(table_id, table_id) for table_id in (1, 2)
        }
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        for table in tables.values():
            live.add_table(table)
            live.seal()

        def crash(self, missing_ok=False):
            raise OSError("power cut")

        monkeypatch.setattr(Path, "unlink", crash)
        with pytest.raises(OSError, match="power cut"):
            live.merge(0, None)
        monkeypatch.undo()
        assert len(list(tmp_path.glob(f"segment-*{SEGMENT_SUFFIX}"))) == 3

        reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            self.directory_matches_manifest(tmp_path)
            assert reopened.num_segments == 1
            assert [
                list(map(list, reopened.fetch([probe]))) for probe in PROBES
            ] == self.rebuilt_fetches(reopened, tables)
        finally:
            reopened.close()

    def test_legacy_json_segment_still_loads(self, tmp_path):
        live = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        live.add_table(self.make_table(1, 5))
        live.seal()
        expected = [list(map(list, live.fetch([probe]))) for probe in PROBES]
        live.close()

        # Rewrite the directory the way a pre-binary-format process left it:
        # a JSON segment file, referenced by name from the manifest.
        (seg_path,) = tmp_path.glob(f"*{SEGMENT_SUFFIX}")
        mapped = load_segment(seg_path)
        json_path = seg_path.with_suffix(".json")
        save_index_json(mapped, json_path)
        mapped.close()
        seg_path.unlink()
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["segments"][0]["file"] = json_path.name
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")

        reopened = LiveIndex(config=CONFIG, directory=tmp_path, fsync=False)
        try:
            assert [
                list(map(list, reopened.fetch([probe]))) for probe in PROBES
            ] == expected
        finally:
            reopened.close()
