"""Paged posting-list storage: mmap-backed binary segments.

The paper excludes index *fetch* time from the runtime comparison but notes
that it "can vary between 1 and 40 seconds when the data and the index has to
be retrieved from disk" (Section 7.2) — DWTC does not fit in memory.  The
authors' deployment keeps the index in Vertica; in its place,
:func:`write_segment` persists the CSR block
(:class:`~repro.storage.segment_block.SegmentBlock`) of an
:class:`~repro.index.InvertedIndex` into a single ``.seg`` file, laid out
as a fixed set of 8-byte-aligned regions — format v3, the paper's per-row
layout: a posting is ``(row ordinal, column)``, 8 bytes, and each row's
super key is stored once, in the row table — and :func:`load_segment`
maps that file back with :mod:`mmap` as an
:class:`~repro.index.InvertedIndex` over :class:`memoryview` s of the
mapping, so opening a multi-GB index costs the vocabulary, a
constant-size directory and one range check of the ordinals (pages fault
in on demand and are shared between processes mapping the same file).
The join of postings and keys happens at fetch time, one gather per
fetched value.
"""

from __future__ import annotations

import json
import mmap
import operator
import os
import struct
import sys
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import NoReturn
from zlib import crc32

import numpy as np

from ..exceptions import SegmentFormatError, StorageError
from ..index import InvertedIndex
from .segment_block import MAX_ROWS, SegmentBlock

#: File suffix of binary mmap segment files.
SEGMENT_SUFFIX = ".seg"

#: Leading magic of a segment file (8 bytes, also its alignment unit).
SEGMENT_MAGIC = b"MATESEG3"

#: Trailing magic inside the fixed-size footer; a torn write loses it.
SEGMENT_FOOTER_MAGIC = b"MSG3"

#: Version of the on-disk segment format this module reads and writes.
SEGMENT_FORMAT_VERSION: int = 3

#: Footer layout: directory offset, directory length, CRC32 of the
#: directory bytes, trailing magic.  Fixed-size so the loader can find the
#: directory from the end of the file without scanning the payload.
_SEGMENT_FOOTER = struct.Struct("<QQI4s")

# ----------------------------------------------------------------------
# Binary mmap segments
# ----------------------------------------------------------------------
def _region_sizes(counts: dict, width: int) -> dict[str, int]:
    """Byte length of every region of a segment file, in file order.

    A file holds exactly these regions, each 8-byte-aligned: the vocabulary
    (``value_offsets`` are *character* positions into the decoded
    ``value_text``), then the columns of the
    :class:`~repro.storage.segment_block.SegmentBlock` of the same names —
    8 bytes a posting (row ordinal, column) and ``16 + width`` bytes a row
    (table id, row index, super key).
    """
    values = int(counts["values"])
    postings = int(counts["postings"])
    rows = int(counts["rows"])
    return {
        "value_offsets": 8 * (values + 1),
        "value_text": int(counts["value_bytes"]),
        "posting_offsets": 8 * (values + 1),
        "row_ordinals": 4 * postings,
        "column_indexes": 4 * postings,
        "row_table_ids": 8 * rows,
        "row_row_indexes": 8 * rows,
        "row_keys": width * rows,
    }


def write_segment(
    index: InvertedIndex, path: str | Path, fsync: bool = True
) -> Path:
    """Persist the block of an index as one binary mmap-able ``.seg`` file.

    Layout (format v3): leading :data:`SEGMENT_MAGIC`, then the fixed set of
    8-byte-aligned raw regions of :func:`_region_sizes` (native byte order;
    the packed super keys are big-endian, exactly the vectorized prefilter
    kernels' input, and stored once per row), then a JSON directory of
    constant size — counts, the region table and the hash configuration —
    and the CRC-protected fixed footer.  The block is written column by
    column as it is.  A block of more rows than an ``int32`` row ordinal can
    name raises :class:`~repro.exceptions.SegmentFormatError` before
    anything is written.

    The file is written to a temporary sibling and atomically renamed, so a
    crash mid-write never leaves a half-segment under the target name; a
    write that raises removes the temporary file.
    """
    block = index.block
    encoded = "".join(block.values).encode("utf-8", "surrogatepass")
    regions = {
        "value_offsets": array(
            "q", chain((0,), accumulate(map(len, block.values)))
        ),
        "value_text": encoded,
        "posting_offsets": block.posting_offsets,
        "row_ordinals": block.row_ordinals,
        "column_indexes": block.column_indexes,
        "row_table_ids": block.row_table_ids,
        "row_row_indexes": block.row_row_indexes,
        "row_keys": block.row_keys,
    }
    counts = {
        "values": len(block.values),
        "value_bytes": len(encoded),
        "postings": block.num_postings(),
        "rows": len(block.row_table_ids),
    }
    path = Path(path)
    if counts["rows"] > MAX_ROWS:
        raise SegmentFormatError(
            f"segment {path}: {counts['rows']} rows do not fit the int32 row "
            f"ordinals of segment format v{SEGMENT_FORMAT_VERSION} (at most "
            f"{MAX_ROWS}); split the tables over more segments"
        )
    sizes = _region_sizes(counts, block.key_width)

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") as handle:
            handle.write(SEGMENT_MAGIC)
            position = len(SEGMENT_MAGIC)
            table: dict[str, list[int]] = {}
            for name, size in sizes.items():
                table[name] = [position, size]
                if handle.write(regions[name]) != size:
                    raise SegmentFormatError(
                        f"segment {path}: column {name!r} is not the {size} "
                        f"bytes its counts {counts} imply"
                    )
                # Every region starts 8-byte-aligned.
                padding = -size % 8
                handle.write(bytes(padding))
                position += size + padding
            directory = json.dumps(
                {
                    "format_version": SEGMENT_FORMAT_VERSION,
                    "byteorder": sys.byteorder,
                    "hash_function": block.hash_function_name,
                    "hash_size": block.hash_size,
                    "key_width": block.key_width,
                    "counts": counts,
                    "regions": table,
                },
                separators=(",", ":"),
            ).encode("utf-8")
            handle.write(directory)
            handle.write(
                _SEGMENT_FOOTER.pack(
                    position,
                    len(directory),
                    crc32(directory) & 0xFFFFFFFF,
                    SEGMENT_FOOTER_MAGIC,
                )
            )
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if fsync:
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    return path


def load_segment(path: str | Path) -> InvertedIndex:
    """Map a ``.seg`` file written by :func:`write_segment` (read-only).

    Startup cost is the directory parse, the vocabulary (one decode, one
    ``value -> id`` dictionary) and the structural checks (one min / max
    over the row ordinals): the columns stay in the mapping and a value's
    posting view is joined out of them at its first fetch, so a multi-GB
    segment opens quickly and its pages are shared between processes
    mapping the same file.  Structural damage —
    wrong magic, torn footer, checksum mismatch, a region outside the
    payload or of another length than the counts imply, offsets that do not
    partition their column, a row ordinal outside the row table, text that
    is not UTF-8 — and files of another format version or byte order raise
    :class:`~repro.exceptions.SegmentFormatError`.  The refusal of an older
    format (a v2 file: one key copy per posting) names the file, its
    directory and its version, and the command that rebuilds the index.
    """
    path = Path(path)
    if not path.exists():
        raise StorageError(f"segment file does not exist: {path}")
    size = path.stat().st_size
    if size < len(SEGMENT_MAGIC) + _SEGMENT_FOOTER.size:
        raise SegmentFormatError(
            f"segment file {path} is truncated ({size} bytes; a valid "
            f"segment needs at least "
            f"{len(SEGMENT_MAGIC) + _SEGMENT_FOOTER.size})"
        )
    with path.open("rb") as handle:
        mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        magic = mapping[: len(SEGMENT_MAGIC)]
        if magic != SEGMENT_MAGIC:
            if magic[:-1] == SEGMENT_MAGIC[:-1]:
                _refuse_version(path, magic[-1:].decode("latin-1"), magic)
            raise SegmentFormatError(
                f"segment file {path} has a wrong leading magic "
                f"(not a segment file?)"
            )
        directory_offset, directory_length, checksum, trailer = (
            _SEGMENT_FOOTER.unpack(mapping[size - _SEGMENT_FOOTER.size :])
        )
        if trailer != SEGMENT_FOOTER_MAGIC:
            raise SegmentFormatError(
                f"segment file {path} has a torn footer (missing trailing "
                f"magic); the file was truncated or the write never finished"
            )
        if (
            directory_offset < len(SEGMENT_MAGIC)
            or directory_offset + directory_length > size - _SEGMENT_FOOTER.size
        ):
            raise SegmentFormatError(
                f"segment file {path} directory points outside the file"
            )
        directory = mapping[
            directory_offset : directory_offset + directory_length
        ]
        if crc32(directory) & 0xFFFFFFFF != checksum:
            raise SegmentFormatError(
                f"segment file {path} directory checksum mismatch "
                f"(corrupt or torn file)"
            )
        try:
            payload = json.loads(directory.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise SegmentFormatError(
                f"segment file {path} has an unparsable directory: {exc}"
            ) from exc
        try:
            block = _mapped_block(path, memoryview(mapping), payload, directory_offset)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise SegmentFormatError(
                f"segment file {path} has a malformed directory: {exc!r}"
            ) from exc
        return InvertedIndex(block, path=path, mapping=mapping)
    except BaseException:
        try:
            mapping.close()
        except BufferError:
            # The failed frames still hold views; the mapping goes away
            # with them.
            pass
        raise


def _refuse_version(path: Path, version: str, magic: bytes) -> NoReturn:
    """Refuse a segment file of another format version, by name."""
    raise SegmentFormatError(
        f"segment file {path.name} in {path.parent} is segment format "
        f"v{version} (leading magic {magic!r}); this release reads only "
        f"format v{SEGMENT_FORMAT_VERSION} ({SEGMENT_MAGIC!r}) and keeps no "
        f"converter: rebuild the index from its corpus into a new "
        f"directory: repro index CORPUS --live-dir NEW_DIR"
    )


def _is_partition(bounds: list[int], total: int) -> bool:
    """Whether ``bounds`` rises strictly from 0 to ``total``."""
    return (
        bounds[0] == 0
        and bounds[-1] == total
        and all(map(operator.lt, bounds, bounds[1:]))
    )


def _mapped_block(
    path: Path, data: memoryview, payload: dict, data_end: int
) -> SegmentBlock:
    """The block of a mapped file, every structural claim checked."""
    version = int(payload["format_version"])
    if version != SEGMENT_FORMAT_VERSION:
        _refuse_version(path, str(version), SEGMENT_MAGIC)
    byteorder = payload["byteorder"]
    if byteorder != sys.byteorder:
        raise SegmentFormatError(
            f"segment file {path} was written in {byteorder!r} byte order; "
            f"this host reads only {sys.byteorder!r} (rebuild the segment "
            f"here)"
        )
    width = int(payload["key_width"])
    if width <= 0:
        raise SegmentFormatError(
            f"segment file {path} declares invalid key width {width}"
        )
    counts = payload["counts"]
    if any(int(count) < 0 for count in counts.values()):
        raise SegmentFormatError(
            f"segment file {path} declares negative counts {counts}"
        )
    regions: dict[str, memoryview] = {}
    for name, expected in _region_sizes(counts, width).items():
        offset, length = map(int, payload["regions"][name])
        if length != expected:
            raise SegmentFormatError(
                f"segment file {path}: region {name!r} is {length} bytes "
                f"long, the counts {counts} imply {expected}"
            )
        if (
            offset < len(SEGMENT_MAGIC)
            or offset % 8
            or offset + length > data_end
        ):
            raise SegmentFormatError(
                f"segment file {path}: region {name!r} "
                f"[{offset}, {offset + length}) is misaligned or lies "
                f"outside the payload"
            )
        regions[name] = data[offset : offset + length]
    try:
        text = str(regions.pop("value_text"), "utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise SegmentFormatError(
            f"segment file {path} has vocabulary text that is not UTF-8: {exc}"
        ) from exc
    bounds = regions.pop("value_offsets").cast("q").tolist()
    if not _is_partition(bounds, len(text)):
        raise SegmentFormatError(
            f"segment file {path}: the value offsets do not partition the "
            f"{len(text)} characters of vocabulary text into non-empty values"
        )
    postings = int(counts["postings"])
    if not _is_partition(regions["posting_offsets"].cast("q").tolist(), postings):
        raise SegmentFormatError(
            f"segment file {path}: the posting offsets do not partition the "
            f"{postings} postings into non-empty posting lists"
        )
    rows = int(counts["rows"])
    ordinals = np.frombuffer(regions["row_ordinals"], np.int32)
    if postings and not 0 <= int(ordinals.min()) <= int(ordinals.max()) < rows:
        raise SegmentFormatError(
            f"segment file {path}: a posting's row ordinal lies outside its "
            f"{rows}-row row table (ordinals {int(ordinals.min())}.."
            f"{int(ordinals.max())})"
        )
    return SegmentBlock(
        hash_function_name=payload["hash_function"],
        hash_size=int(payload["hash_size"]),
        key_width=width,
        values=list(map(text.__getitem__, map(slice, bounds, bounds[1:]))),
        **regions,
    )


def reopen_segment(
    path: str | Path,
    *,
    hash_function_name: str | None = None,
    hash_size: int | None = None,
) -> InvertedIndex:
    """Map a segment in another process, validating its hash configuration.

    The worker side of the process-pool serving mode: a shard-owning worker
    reopens the ``.seg`` file the pool parent wrote and must end up with an
    index whose XASH parameters match the engine configuration it was told
    to run — otherwise super-key prefiltering would silently reject every
    row.  Pass the expected ``hash_function_name`` / ``hash_size`` (both
    optional) and the mismatch becomes a loud
    :class:`~repro.exceptions.ConfigurationError` at startup instead of an
    empty result set at query time.

    The mapping itself is identical to :func:`load_segment`; reopening the
    same file from many workers shares its pages through the OS page cache.
    """
    from ..exceptions import ConfigurationError

    index = load_segment(path)
    try:
        if (
            hash_function_name is not None
            and index.hash_function_name != hash_function_name
        ):
            raise ConfigurationError(
                f"segment {path} was built with hash function "
                f"{index.hash_function_name!r}, worker expects "
                f"{hash_function_name!r}"
            )
        if hash_size is not None and index.hash_size != hash_size:
            raise ConfigurationError(
                f"segment {path} was built with hash_size "
                f"{index.hash_size}, worker expects {hash_size}"
            )
    except BaseException:
        index.close()
        raise
    return index
