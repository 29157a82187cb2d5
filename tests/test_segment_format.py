"""Segment format v3: one super key per row, postings as ``(row ordinal,
column)``.

* Corpora x hash widths 128 / 256 / 512: a written and mapped bulk index
  fetches exactly the ``(value, table, column, row, super key)`` items of the
  per-cell reference (``tests/helpers.py::CellIndex``), and its file is the
  reference's block (``SegmentBlock.from_postings``) written, byte for byte.
* A masked ``merge_blocks`` of v3 blocks is the bulk rebuild of the
  surviving tables, byte for byte (up to the vocabulary order when a mask
  hides where a value was first seen).
* The layout golden: the regions of a two-table index spelled out.
* A crafted ordinal outside the row table is a ``SegmentFormatError`` naming
  the file, never an ``IndexError``; a block of 2^31 rows is refused before
  anything is written.
* A v2 file (``tests/data/segment_v2.seg``, written by the last v2 release)
  is refused by name — by ``load_segment``, by ``reopen_segment`` (a pool
  worker's open) and, inside a live directory, by ``LiveIndex.open`` and
  ``read_snapshot``, which leave every file's bytes and mtime as they were.
"""

from __future__ import annotations

import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import LiveIndex, MateConfig, Table, build_index
from repro.exceptions import IndexError_, SegmentFormatError, StorageError
from repro.hashing import SuperKeyGenerator
from repro.hashing.base import key_width
from repro.index.bulk import build_block
from repro.ingest.live import read_snapshot
from repro.storage import (
    SEGMENT_FORMAT_VERSION,
    SEGMENT_MAGIC,
    load_segment,
    reopen_segment,
    write_segment,
)
from repro.storage.segment_block import SegmentBlock, merge_blocks, row_ordinals

from tests.helpers import (
    CellIndex,
    block_columns,
    block_postings,
    fetch_items,
    row_keys,
)

V2_SEGMENT = Path(__file__).parent / "data" / "segment_v2.seg"

FOOTER = struct.Struct("<QQI4s")

CELLS = st.sampled_from(["ada", "bob", "paris", "rome", "42", "", "x y", "é"])


@st.composite
def tables(draw, min_size=1, max_size=6):
    """Tables of distinct ids (out of order, some near 2^62), 1-4 columns,
    0-5 rows, shared vocabulary and missing cells."""
    ids = draw(
        st.lists(
            st.one_of(st.integers(0, 40), st.integers(2**62, 2**62 + 5)),
            min_size=min_size,
            max_size=max_size,
            unique=True,
        )
    )
    drawn = []
    for table_id in ids:
        width = draw(st.integers(1, 4))
        rows = draw(
            st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=5)
        )
        drawn.append(
            Table(
                table_id=table_id,
                name=f"t{table_id}",
                columns=[f"c{i}" for i in range(width)],
                rows=rows,
            )
        )
    return drawn


def directory_of(path: Path) -> dict:
    data = path.read_bytes()
    offset, length, _crc, _magic = FOOTER.unpack(data[-FOOTER.size :])
    return json.loads(data[offset : offset + length])


class TestRoundTrip:
    @pytest.mark.parametrize("hash_size", [128, 256, 512])
    @given(corpus=tables())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_fetch_is_the_per_cell_reference(self, tmp_path, hash_size, corpus):
        config = MateConfig(hash_size=hash_size)
        reference = CellIndex.built(corpus, config=config)
        path = write_segment(
            build_index(corpus, config=config), tmp_path / "bulk.seg", fsync=False
        )
        expected = [
            (value, table_id, column, row, reference.keys[(table_id, row)])
            for value, (tables_, columns, rows) in reference.postings.items()
            for table_id, column, row in zip(tables_, columns, rows)
        ]
        mapped = load_segment(path)
        try:
            assert fetch_items(mapped, list(reference.postings)) == expected
            assert row_keys(mapped) == sorted(
                (table, row, key) for (table, row), key in reference.keys.items()
            )
            width = key_width(hash_size)
            for block in mapped.fetch_batch(list(reference.postings)):
                assert block.key_width == width
                assert len(block.super_key_bytes) == width * len(block)
        finally:
            mapped.close()
        written = write_segment(
            reference.to_index(), tmp_path / "reference.seg", fsync=False
        )
        assert path.read_bytes() == written.read_bytes()


def sorted_vocabulary(block: SegmentBlock) -> SegmentBlock:
    """``block`` with its vocabulary sorted and the posting lists moved
    along — ordinals, columns and the row table exactly as they were."""
    columns = block.arrays()
    order = sorted(range(len(block.values)), key=block.values.__getitem__)
    lengths = np.diff(columns.offsets)[order]
    at = np.concatenate(
        [np.arange(columns.offsets[i], columns.offsets[i + 1]) for i in order]
        or [np.empty(0, dtype=np.int64)]
    )
    offsets = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return SegmentBlock(
        hash_function_name=block.hash_function_name,
        hash_size=block.hash_size,
        key_width=block.key_width,
        values=[block.values[i] for i in order],
        posting_offsets=offsets,
        row_ordinals=columns.ordinals[at],
        column_indexes=columns.columns[at],
        row_table_ids=block.row_table_ids,
        row_row_indexes=block.row_row_indexes,
        row_keys=block.row_keys,
    )


def written(block: SegmentBlock, path: Path) -> bytes:
    from repro.index import InvertedIndex

    return write_segment(InvertedIndex(block), path, fsync=False).read_bytes()


class TestMerge:
    @given(
        corpus=tables(min_size=2, max_size=8),
        cuts=st.lists(st.integers(0, 8), max_size=3),
        hidden=st.sets(st.integers(0, 7)),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_masked_merge_is_the_bulk_rebuild(self, tmp_path, corpus, cuts, hidden):
        generator = SuperKeyGenerator.from_name("xash", MateConfig())
        bounds = sorted({0, len(corpus), *(min(cut, len(corpus)) for cut in cuts)})
        groups = [corpus[start:end] for start, end in zip(bounds, bounds[1:])]
        dead = {corpus[at].table_id for at in hidden if at < len(corpus)}
        blocks = [build_block(group, generator, "xash") for group in groups]
        masks = [{t.table_id for t in group} & dead for group in groups]
        merged = merge_blocks(blocks, masks)
        surviving = [table for table in corpus if table.table_id not in dead]
        rebuilt = build_block(surviving, generator, "xash")
        assert sorted(merged.values) == sorted(rebuilt.values)
        assert written(sorted_vocabulary(merged), tmp_path / "merged.seg") == (
            written(sorted_vocabulary(rebuilt), tmp_path / "rebuilt.seg")
        )
        if not dead:
            assert block_columns(merged) == block_columns(rebuilt)
            assert written(merged, tmp_path / "m.seg") == written(
                rebuilt, tmp_path / "r.seg"
            )

    def test_ordinals_follow_their_rows_through_the_merge(self):
        # Table 9 sorts after table 3, so the merged row table interleaves
        # the blocks' rows and every ordinal of the first block moves.
        generator = SuperKeyGenerator.from_name("xash", MateConfig())
        first = build_block(
            [Table(table_id=9, name="a", columns=["c"], rows=[["x"], ["y"]])],
            generator,
            "xash",
        )
        second = build_block(
            [
                Table(table_id=3, name="b", columns=["c"], rows=[["x"]]),
                Table(table_id=1, name="c", columns=["c"], rows=[["z"]]),
            ],
            generator,
            "xash",
        )
        merged = merge_blocks([first, second], [set(), {1}])
        assert merged.values == ["x", "y"]
        assert merged.row_table_ids.tolist() == [3, 9, 9]
        assert merged.row_ordinals.tolist() == [1, 0, 2]
        assert [list(map(list, columns)) for _, *columns in block_postings(merged)] == [
            [[9, 3], [0, 0], [0, 0]],
            [[9], [0], [1]],
        ]


class TestLayout:
    def test_golden_regions(self, tmp_path):
        """Two tables, the larger id first: the row table is sorted, so the
        first table's rows sit behind the second's and its postings' ordinals
        say so; a posting is 8 bytes, a row 16 + key width."""
        corpus = [
            Table(table_id=5, name="a", columns=["x", "y"], rows=[["a", "b"], ["b", ""]]),
            Table(table_id=2, name="b", columns=["x"], rows=[["a"]]),
        ]
        config = MateConfig(hash_size=128)
        generator = SuperKeyGenerator.from_name("xash", config)
        path = write_segment(
            build_index(corpus, config=config), tmp_path / "golden.seg", fsync=False
        )
        data = path.read_bytes()
        assert data[:8] == SEGMENT_MAGIC == b"MATESEG3"
        assert data[-4:] == b"MSG3"
        directory = directory_of(path)
        assert set(directory) == {
            "format_version",
            "byteorder",
            "hash_function",
            "hash_size",
            "key_width",
            "counts",
            "regions",
        }
        assert directory["format_version"] == SEGMENT_FORMAT_VERSION == 3
        assert directory["counts"] == {
            "values": 2,
            "value_bytes": 2,
            "postings": 4,
            "rows": 3,
        }
        regions = directory["regions"]
        assert list(regions) == [
            "value_offsets",
            "value_text",
            "posting_offsets",
            "row_ordinals",
            "column_indexes",
            "row_table_ids",
            "row_row_indexes",
            "row_keys",
        ]

        def region(name: str, dtype) -> list:
            offset, length = regions[name]
            return np.frombuffer(data, dtype, length // np.dtype(dtype).itemsize, offset).tolist()

        assert [length for _offset, length in regions.values()] == [
            24, 2, 24, 16, 16, 24, 24, 48
        ]
        assert region("value_offsets", np.int64) == [0, 1, 2]
        assert bytes(region("value_text", np.uint8)) == b"ab"
        assert region("posting_offsets", np.int64) == [0, 2, 4]
        # "a": (table 5 row 0, column 0), (table 2 row 0, column 0);
        # "b": (table 5 row 0, column 1), (table 5 row 1, column 0).
        assert region("row_ordinals", np.int32) == [1, 0, 1, 2]
        assert region("column_indexes", np.int32) == [0, 0, 1, 0]
        assert region("row_table_ids", np.int64) == [2, 5, 5]
        assert region("row_row_indexes", np.int64) == [0, 0, 1]
        offset, length = regions["row_keys"]
        assert data[offset : offset + length] == b"".join(
            generator.row_super_key(row).to_bytes(16, "big")
            for row in (["a"], ["a", "b"], ["b", ""])
        )


class TestRefusals:
    @pytest.fixture()
    def segment(self, tmp_path):
        corpus = [
            Table(table_id=1, name="a", columns=["x", "y"], rows=[["a", "b"], ["c", "a"]]),
            Table(table_id=4, name="b", columns=["x"], rows=[["b"]]),
        ]
        return write_segment(
            build_index(corpus, config=MateConfig()), tmp_path / "ok.seg", fsync=False
        )

    @pytest.mark.parametrize("ordinal", [3, 1000, -1])
    def test_ordinal_outside_the_row_table(self, segment, tmp_path, ordinal):
        data = bytearray(segment.read_bytes())
        directory = directory_of(segment)
        assert directory["counts"]["rows"] == 3
        offset, _length = directory["regions"]["row_ordinals"]
        struct.pack_into("=i", data, offset + 4, ordinal)
        bad = tmp_path / "ordinal.seg"
        bad.write_bytes(bytes(data))
        with pytest.raises(SegmentFormatError, match="row ordinal") as raised:
            load_segment(bad)
        assert str(bad) in str(raised.value)

    def test_block_of_two_to_the_31_rows_is_refused_at_write(self, tmp_path):
        class Rows:
            """A row column claiming 2^31 rows (holding none)."""

            def __len__(self):
                return 2**31

        index = build_index([Table(table_id=1, name="a", columns=["x"], rows=[["a"]])])
        index.block.row_table_ids = Rows()
        target = tmp_path / "huge.seg"
        with pytest.raises(SegmentFormatError, match="int32 row ordinals") as raised:
            write_segment(index, target, fsync=False)
        assert str(target) in str(raised.value)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(IndexError_, match="at most"):
            row_ordinals(Rows())

    def test_v2_file_is_refused_by_name(self, tmp_path):
        assert V2_SEGMENT.read_bytes()[:8] == b"MATESEG2"
        for open_segment in (load_segment, reopen_segment):
            with pytest.raises(StorageError) as raised:
                open_segment(V2_SEGMENT)
            message = str(raised.value)
            assert isinstance(raised.value, SegmentFormatError)
            assert V2_SEGMENT.name in message and str(V2_SEGMENT.parent) in message
            assert "format v2" in message
            assert "repro index CORPUS --live-dir NEW_DIR" in message

    def test_unknown_directory_version_is_refused_by_name(self, segment, tmp_path):
        from zlib import crc32

        data = segment.read_bytes()
        offset, length, _crc, magic = FOOTER.unpack(data[-FOOTER.size :])
        directory = json.loads(data[offset : offset + length])
        directory["format_version"] = 4
        encoded = json.dumps(directory, separators=(",", ":")).encode()
        bad = tmp_path / "v4.seg"
        bad.write_bytes(
            data[:offset]
            + encoded
            + FOOTER.pack(offset, len(encoded), crc32(encoded) & 0xFFFFFFFF, magic)
        )
        with pytest.raises(SegmentFormatError, match="format v4"):
            load_segment(bad)


class TestV2Directory:
    """A live directory holding a v2 segment is refused by its writer's open
    and by the read-only open alike, before either touches a file."""

    @pytest.fixture()
    def directory(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=MateConfig(), fsync=False)
        live.add_table(Table(table_id=1, name="a", columns=["x"], rows=[["ada"]]))
        live.seal()
        live.add_table(Table(table_id=2, name="b", columns=["x"], rows=[["bob"]]))
        live.close()
        [segment] = directory.glob("segment-*.seg")
        shutil.copyfile(V2_SEGMENT, segment)
        # What the writer's recovery would sweep or repair if it ran.
        (directory / "segment-000099.seg").write_bytes(b"orphan")
        (directory / "manifest.json.tmp").write_text("{")
        with (directory / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op":"add_table","seq":99,"tab')
        return directory, segment.name

    @staticmethod
    def files(directory: Path) -> dict:
        return {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.iterdir()
        }

    @pytest.mark.parametrize(
        "open_directory",
        [
            lambda directory: LiveIndex.open(directory, config=MateConfig()),
            read_snapshot,
        ],
        ids=["LiveIndex.open", "read_snapshot"],
    )
    def test_refused_with_every_file_untouched(self, directory, open_directory):
        directory, segment = directory
        before = self.files(directory)
        with pytest.raises(StorageError) as raised:
            open_directory(directory)
        message = str(raised.value)
        assert str(directory) in message and segment in message
        assert "format v2" in message
        assert "repro index CORPUS --live-dir NEW_DIR" in message
        assert self.files(directory) == before
