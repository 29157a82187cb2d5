"""Paged posting-list storage: mmap-backed segments and the fetch-cost model.

The paper excludes index *fetch* time from the runtime comparison but notes
that it "can vary between 1 and 40 seconds when the data and the index has to
be retrieved from disk" (Section 7.2) — DWTC does not fit in memory.  The
authors' deployment keeps the index in Vertica; this module provides the two
storage layers the reproduction uses in its place:

* **Binary mmap segments** — :func:`write_segment` persists a columnar
  :class:`~repro.index.InvertedIndex` into a single ``.seg`` file: one CSR
  block (:class:`~repro.storage.segment_block.SegmentBlock`) laid out as a
  fixed set of 8-byte-aligned regions, and :func:`load_segment` maps that
  file back with :mod:`mmap`.  :class:`MappedSegmentIndex` serves the full
  read surface of :class:`~repro.index.InvertedIndex` over such a block —
  mapped or on the heap — through zero-copy :class:`memoryview` slices, so
  opening a multi-GB index costs the vocabulary and a constant-size
  directory (pages fault in on demand and are shared between processes
  mapping the same file).  :class:`MappedSuperKeys` backs per-row super-key
  lookups by binary search over the block's row table.
* **The simulated paged store** — :class:`PagedPostingStore` lays posting
  lists out on fixed-size pages served through an LRU buffer pool, and
  :class:`FetchCostModel` converts page misses into an estimated fetch
  latency, so the fetch-cost experiment can report how the initial-column
  choice drives the 1-40 s range the paper mentions.  (The store is a
  *model*: it only accounts for what a disk-resident layout would read.)
"""

from __future__ import annotations

import json
import mmap
import operator
import os
import struct
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence
from zlib import crc32

from ..exceptions import IndexError_, SegmentFormatError, StorageError
from ..index import (
    ColumnarPostingList,
    FetchBlock,
    FetchedItem,
    InvertedIndex,
    PostingListItem,
)
from .segment_block import SegmentBlock, flatten_index, visible_counts

#: File suffix of binary mmap segment files.
SEGMENT_SUFFIX = ".seg"

#: Leading magic of a segment file (8 bytes, also its alignment unit).
SEGMENT_MAGIC = b"MATESEG2"

#: Trailing magic inside the fixed-size footer; a torn write loses it.
SEGMENT_FOOTER_MAGIC = b"MSG2"

#: Version of the on-disk segment format this module reads and writes.
SEGMENT_FORMAT_VERSION: int = 2

#: Footer layout: directory offset, directory length, CRC32 of the
#: directory bytes, trailing magic.  Fixed-size so the loader can find the
#: directory from the end of the file without scanning the payload.
_SEGMENT_FOOTER = struct.Struct("<QQI4s")

#: Bytes a single PL item occupies on disk: table id, column id, row id as
#: three 64-bit integers (matches repro.index.statistics.SCR_BYTES_PER_ENTRY).
BYTES_PER_POSTING: int = 24

#: Bytes per stored super key at the default 128-bit hash size.
BYTES_PER_SUPER_KEY: int = 16


@dataclass(frozen=True)
class FetchCostModel:
    """Latency model for reading posting-list pages from storage.

    The defaults approximate a SATA SSD reading 8 KiB pages: a fixed per-read
    seek/request overhead and a linear transfer term.  The absolute values do
    not matter for the experiments (which compare configurations under the
    same model); the *shape* — cost grows with the number of distinct pages
    touched — is what the paper's 1-40 s observation reflects.
    """

    seek_seconds: float = 0.0001
    transfer_seconds_per_page: float = 0.00002
    #: Warm pages served from the buffer pool cost only this much.
    cached_page_seconds: float = 0.000001

    def cost(self, pages_read: int, pages_cached: int = 0) -> float:
        """Estimated seconds to serve a fetch touching the given page counts."""
        if pages_read < 0 or pages_cached < 0:
            raise StorageError("page counts must be non-negative")
        cold = pages_read * (self.seek_seconds + self.transfer_seconds_per_page)
        warm = pages_cached * self.cached_page_seconds
        return cold + warm


@dataclass
class FetchAccounting:
    """Accumulated accounting of fetches served by a :class:`PagedPostingStore`."""

    fetches: int = 0
    values_probed: int = 0
    items_returned: int = 0
    pages_read: int = 0
    pages_from_cache: int = 0
    estimated_seconds: float = 0.0

    @property
    def cache_hit_ratio(self) -> float:
        """Fraction of page accesses served by the buffer pool."""
        total = self.pages_read + self.pages_from_cache
        if total == 0:
            return 0.0
        return self.pages_from_cache / total

    def as_dict(self) -> dict[str, float]:
        """Return the accounting as a plain dictionary (for reporting)."""
        return {
            "fetches": self.fetches,
            "values_probed": self.values_probed,
            "items_returned": self.items_returned,
            "pages_read": self.pages_read,
            "pages_from_cache": self.pages_from_cache,
            "cache_hit_ratio": round(self.cache_hit_ratio, 4),
            "estimated_seconds": self.estimated_seconds,
        }


@dataclass
class _PageTable:
    """Mapping from values to the page ids their posting lists occupy."""

    page_size_bytes: int
    pages_of_value: dict[str, tuple[int, ...]] = field(default_factory=dict)
    num_pages: int = 0

    def layout(self, index: InvertedIndex, include_super_keys: bool) -> None:
        """Assign every value's posting list to one or more pages."""
        bytes_per_item = BYTES_PER_POSTING + (
            BYTES_PER_SUPER_KEY if include_super_keys else 0
        )
        current_page = 0
        used_in_page = 0
        for value in sorted(index.values()):
            item_count = index.posting_list_length(value)
            remaining = item_count * bytes_per_item
            pages: list[int] = []
            while remaining > 0:
                if used_in_page >= self.page_size_bytes:
                    current_page += 1
                    used_in_page = 0
                pages.append(current_page)
                take = min(remaining, self.page_size_bytes - used_in_page)
                used_in_page += take
                remaining -= take
            if not pages:
                pages = [current_page]
            self.pages_of_value[value] = tuple(dict.fromkeys(pages))
        self.num_pages = current_page + 1


class PagedPostingStore:
    """An inverted index served through a simulated paged storage layer.

    Parameters
    ----------
    index:
        The in-memory extended inverted index to serve.
    page_size_bytes:
        Page granularity of the simulated on-disk layout (8 KiB by default).
    buffer_pool_pages:
        Capacity of the LRU buffer pool, in pages.  ``0`` disables caching
        (every access is a cold read).
    include_super_keys:
        Whether the on-disk layout stores a super key next to every PL item
        (the paper's per-cell layout) — this makes posting lists wider and
        increases the number of pages a fetch touches.
    cost_model:
        Latency model used for the accounting.
    """

    def __init__(
        self,
        index: InvertedIndex,
        page_size_bytes: int = 8192,
        buffer_pool_pages: int = 256,
        include_super_keys: bool = True,
        cost_model: FetchCostModel | None = None,
    ):
        if page_size_bytes <= 0:
            raise StorageError(f"page_size_bytes must be positive, got {page_size_bytes}")
        if buffer_pool_pages < 0:
            raise StorageError(
                f"buffer_pool_pages must be non-negative, got {buffer_pool_pages}"
            )
        self.index = index
        self.page_size_bytes = page_size_bytes
        self.buffer_pool_pages = buffer_pool_pages
        self.include_super_keys = include_super_keys
        self.cost_model = cost_model or FetchCostModel()
        self.accounting = FetchAccounting()
        self._buffer: OrderedDict[int, None] = OrderedDict()
        self._page_table = _PageTable(page_size_bytes=page_size_bytes)
        self._page_table.layout(index, include_super_keys)

    # ------------------------------------------------------------------
    # Layout introspection
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Total number of pages in the simulated layout."""
        return self._page_table.num_pages

    def pages_for_value(self, value: str) -> tuple[int, ...]:
        """Return the page ids holding the posting list of ``value``."""
        return self._page_table.pages_of_value.get(value, ())

    def storage_bytes(self) -> int:
        """Total bytes of the simulated layout (pages are not padded)."""
        bytes_per_item = BYTES_PER_POSTING + (
            BYTES_PER_SUPER_KEY if self.include_super_keys else 0
        )
        return self.index.num_posting_items() * bytes_per_item

    # ------------------------------------------------------------------
    # Fetching
    # ------------------------------------------------------------------
    def _touch_page(self, page_id: int) -> bool:
        """Access one page; returns ``True`` on a buffer-pool hit."""
        if self.buffer_pool_pages == 0:
            return False
        if page_id in self._buffer:
            self._buffer.move_to_end(page_id)
            return True
        self._buffer[page_id] = None
        if len(self._buffer) > self.buffer_pool_pages:
            self._buffer.popitem(last=False)
        return False

    def _account_pages(self, probe_values: Sequence[str]) -> None:
        """Charge the buffer pool and cost model for one fetch of the values."""
        pages_needed: list[int] = []
        seen_pages: set[int] = set()
        for value in probe_values:
            for page_id in self.pages_for_value(value):
                if page_id not in seen_pages:
                    seen_pages.add(page_id)
                    pages_needed.append(page_id)

        cold = 0
        warm = 0
        for page_id in pages_needed:
            if self._touch_page(page_id):
                warm += 1
            else:
                cold += 1

        self.accounting.fetches += 1
        self.accounting.values_probed += len(probe_values)
        self.accounting.pages_read += cold
        self.accounting.pages_from_cache += warm
        self.accounting.estimated_seconds += self.cost_model.cost(cold, warm)

    def fetch(self, values: Iterable[str]) -> list[FetchedItem]:
        """Fetch PL items for ``values``, accounting for the pages touched.

        Returns exactly what :meth:`repro.index.InvertedIndex.fetch` returns;
        the side effect is the updated :attr:`accounting`.
        """
        probe_values = [value for value in dict.fromkeys(values) if value != ""]
        self._account_pages(probe_values)
        items = self.index.fetch(probe_values)
        self.accounting.items_returned += len(items)
        return items

    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch packed blocks for ``values``, accounting for the pages touched.

        The struct-of-arrays sibling of :meth:`fetch`: identical accounting,
        but the result is what :meth:`repro.index.InvertedIndex.fetch_batch`
        returns (so the discovery engine's columnar hot path can run on top
        of the simulated paged store).
        """
        probe_values = [value for value in dict.fromkeys(values) if value != ""]
        self._account_pages(probe_values)
        blocks = self.index.fetch_batch(probe_values)
        self.accounting.items_returned += sum(len(block) for block in blocks)
        return blocks

    def estimated_fetch_seconds(self, values: Sequence[str]) -> float:
        """Estimate the cold-cache cost of fetching ``values`` without fetching.

        Used by the fetch-cost experiment to compare initial-column choices
        without mutating the buffer pool.
        """
        pages: set[int] = set()
        for value in dict.fromkeys(values):
            pages.update(self.pages_for_value(value))
        return self.cost_model.cost(len(pages), 0)

    def reset_accounting(self) -> None:
        """Clear the accumulated accounting and empty the buffer pool."""
        self.accounting = FetchAccounting()
        self._buffer.clear()


# ----------------------------------------------------------------------
# Binary mmap segments
# ----------------------------------------------------------------------
def _region_sizes(counts: dict, width: int) -> dict[str, int]:
    """Byte length of every region of a segment file, in file order.

    A file holds exactly these regions, each 8-byte-aligned: the vocabulary
    (``value_offsets`` are *character* positions into the decoded
    ``value_text``), then the columns of the
    :class:`~repro.storage.segment_block.SegmentBlock` of the same names.
    """
    values = int(counts["values"])
    postings = int(counts["postings"])
    rows = int(counts["rows"])
    return {
        "value_offsets": 8 * (values + 1),
        "value_text": int(counts["value_bytes"]),
        "posting_offsets": 8 * (values + 1),
        "table_ids": 8 * postings,
        "row_indexes": 8 * postings,
        "column_indexes": 4 * postings,
        "posting_keys": width * postings,
        "row_table_ids": 8 * rows,
        "row_row_indexes": 8 * rows,
        "row_keys": width * rows,
    }


def block_of(index: InvertedIndex) -> SegmentBlock:
    """The CSR block of ``index``: its own when it is already flat (a sealed
    or merged segment, a mapped file), a fresh flatten otherwise."""
    if isinstance(index, MappedSegmentIndex):
        index._ensure_open("reading the block")
        return index.block
    return flatten_index(index)


def write_segment(
    index: InvertedIndex, path: str | Path, fsync: bool = True
) -> Path:
    """Persist a columnar index as one binary mmap-able ``.seg`` file.

    Layout: leading :data:`SEGMENT_MAGIC`, then the fixed set of
    8-byte-aligned raw regions of :func:`_region_sizes` (native byte order;
    the packed super keys are big-endian, exactly the vectorized prefilter
    kernels' input), then a JSON directory of constant size — counts, the
    region table, the hash configuration, plus the few oversize (spilled)
    super keys as hex strings and the ids of the values they leave without a
    packed column — and the CRC-protected fixed footer.  An index that is
    already flat (a sealed or merged segment, a mapped file) is written
    column by column as it is; any other is flattened first
    (:func:`~repro.storage.segment_block.flatten_index`).

    The file is written to a temporary sibling and atomically renamed, so a
    crash mid-write never leaves a half-segment under the target name; a
    write that raises removes the temporary file.
    """
    block = block_of(index)
    encoded = "".join(block.values).encode("utf-8", "surrogatepass")
    regions = {
        "value_offsets": array(
            "q", chain((0,), accumulate(map(len, block.values)))
        ),
        "value_text": encoded,
        "posting_offsets": block.posting_offsets,
        "table_ids": block.table_ids,
        "row_indexes": block.row_indexes,
        "column_indexes": block.column_indexes,
        "posting_keys": block.posting_keys,
        "row_table_ids": block.row_table_ids,
        "row_row_indexes": block.row_row_indexes,
        "row_keys": block.row_keys,
    }
    counts = {
        "values": len(block.values),
        "value_bytes": len(encoded),
        "postings": len(block.table_ids),
        "rows": len(block.row_table_ids),
    }
    sizes = _region_sizes(counts, block.key_width)

    path = Path(path)
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
                    "spill": [
                        [table_id, row_index, format(super_key, "x")]
                        for (table_id, row_index), super_key in sorted(
                            block.spill.items()
                        )
                    ],
                    "unpacked": sorted(block.unpacked),
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


def load_segment(path: str | Path) -> "MappedSegmentIndex":
    """Map a ``.seg`` file written by :func:`write_segment` (read-only).

    Startup cost is the directory parse, the vocabulary (one decode, one
    ``value -> id`` dictionary) and the structural checks: the columns stay
    in the mapping and a value's posting views are sliced out of them at its
    first fetch, so a multi-GB segment opens quickly and its pages are
    shared between processes mapping the same file.  Structural damage —
    wrong magic, torn footer, checksum mismatch, a region outside the
    payload or of another length than the counts imply, offsets that do not
    partition their column, text that is not UTF-8 — and files of another
    format version or byte order raise
    :class:`~repro.exceptions.SegmentFormatError`.
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
                raise SegmentFormatError(
                    f"segment file {path} has the leading magic {magic!r} of "
                    f"another format version (this build reads only "
                    f"{SEGMENT_MAGIC!r}); rebuild the segment"
                )
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
        return MappedSegmentIndex(block, path=path, mapping=mapping)
    except BaseException:
        try:
            mapping.close()
        except BufferError:
            # The failed frames still hold views; the mapping goes away
            # with them.
            pass
        raise


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
        raise SegmentFormatError(
            f"segment file {path} has unsupported format version "
            f"{version} (supported: {SEGMENT_FORMAT_VERSION})"
        )
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
    return SegmentBlock(
        hash_function_name=payload["hash_function"],
        hash_size=int(payload["hash_size"]),
        key_width=width,
        values=list(map(text.__getitem__, map(slice, bounds, bounds[1:]))),
        spill={
            (int(table_id), int(row_index)): int(key_hex, 16)
            for table_id, row_index, key_hex in payload["spill"]
        },
        unpacked=map(int, payload["unpacked"]),
        **regions,
    )


def reopen_segment(
    path: str | Path,
    *,
    hash_function_name: str | None = None,
    hash_size: int | None = None,
) -> "MappedSegmentIndex":
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


class MappedSuperKeys:
    """Read-only per-row super keys over one segment block's row table.

    Point lookups binary-search the sorted ``(table_id, row_index)``
    columns; packed columns are assembled with slice copies from the key
    buffer.  The store is immutable, so its ``epoch`` is forever 0 and
    every memoised column computed from it stays valid for the life of the
    block.  Oversize (spilled) keys live in a small plain dictionary.
    """

    __slots__ = ("width_bytes", "epoch", "_tables", "_rows", "_keys", "_spill")

    def __init__(self, table_ids, row_indexes, keys, width_bytes: int, spill: dict):
        self.width_bytes = width_bytes
        self.epoch = 0
        self._tables = table_ids
        self._rows = row_indexes
        self._keys = keys
        self._spill = spill

    def __len__(self) -> int:
        return len(self._tables) + len(self._spill)

    def _slot(self, table_id: int, row_index: int) -> int:
        tables = self._tables
        low = bisect_left(tables, table_id)
        high = bisect_right(tables, table_id, low)
        slot = bisect_left(self._rows, row_index, low, high)
        if slot < high and self._rows[slot] == row_index:
            return slot
        return -1

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._spill or self._slot(*key) >= 0

    def get(self, key: tuple[int, int], default: int | None = 0) -> int | None:
        """Return the super key stored under ``key`` (or ``default``)."""
        slot = self._slot(*key)
        if slot < 0:
            return self._spill.get(key, default)
        width = self.width_bytes
        offset = slot * width
        return int.from_bytes(self._keys[offset : offset + width], "big")

    def set(self, key: tuple[int, int], value: int) -> None:
        raise IndexError_(
            "segments are read-only; rewrite the segment to change super keys"
        )

    def or_into(self, key: tuple[int, int], value_hash: int) -> int:
        raise IndexError_(
            "segments are read-only; rewrite the segment to change super keys"
        )

    def pop(self, key: tuple[int, int]) -> None:
        raise IndexError_(
            "segments are read-only; rewrite the segment to change super keys"
        )

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        """Iterate over ``((table_id, row_index), super_key)`` pairs."""
        keys = self._keys
        width = self.width_bytes
        from_bytes = int.from_bytes
        for slot, key in enumerate(zip(self._tables, self._rows)):
            offset = slot * width
            yield key, from_bytes(keys[offset : offset + width], "big")
        yield from self._spill.items()

    def get_many(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> list[int]:
        """Return the super keys of the given rows (0 when absent), in order."""
        get = self.get
        return [get(key, 0) for key in zip(table_ids, row_indexes)]

    def get_many_packed(
        self, table_ids: Sequence[int], row_indexes: Sequence[int]
    ) -> bytes | None:
        """Packed key column of the given rows (``None`` on any spilled key).

        The hot path never reaches this method: every value's packed column
        is a slice of the block; this slow per-row assembly only serves
        ad-hoc row sets.
        """
        width = self.width_bytes
        keys = self._keys
        spill = self._spill
        out = bytearray(len(table_ids) * width)
        position = 0
        for key in zip(table_ids, row_indexes):
            slot = self._slot(*key)
            if slot < 0:
                if spill and key in spill:
                    return None
            else:
                offset = slot * width
                out[position : position + width] = keys[offset : offset + width]
            position += width
        return bytes(out)

    def table_ids_present(self) -> set[int]:
        """Distinct table ids owning at least one row."""
        tables = set(self._tables)
        tables.update(table_id for table_id, _row in self._spill)
        return tables

    def detach(self) -> None:
        """Drop the block's views (the owning index is closing)."""
        self._tables = self._rows = array("q")
        self._keys = b""
        self._spill = {}


class MappedSegmentIndex(InvertedIndex):
    """An :class:`~repro.index.InvertedIndex` served from one segment block.

    The block's columns are on the heap (a bulk-built index, a freshly
    sealed or merged segment) or views into a mapped ``.seg`` file
    (``mapping``); either way the full read surface — ``fetch`` /
    ``fetch_batch`` / ``posting_columns`` / ``super_key`` / iteration — is
    served zero-copy: a value's :class:`~repro.index.ColumnarPostingList`
    views, packed super-key column included, are sliced out of the block at
    its first fetch and memoised, so a warm ``fetch_batch`` does no per-item
    work, and counts come from the offsets.  Two threads may slice the same
    value at once; they build equal views and the memo keeps either.
    :meth:`close` drops the block (unmapping the file), after which any
    fetch raises :class:`~repro.exceptions.IndexClosedError`.

    A segment is immutable: its mutators raise
    :class:`~repro.exceptions.IndexError_`.  The bulk build's index
    (``thaws=True``) is a block nobody else shares, so its first mutation
    *thaws* it instead — the block is materialised as per-value posting
    lists and a packed super-key store, and the object carries on as a
    plain mutable :class:`~repro.index.InvertedIndex` (Section 5.4's
    maintenance operations run on a built index).
    """

    def __init__(
        self,
        block: SegmentBlock,
        path: Path | None = None,
        mapping: mmap.mmap | None = None,
        thaws: bool = False,
    ):
        super().__init__(
            hash_function_name=block.hash_function_name,
            hash_size=block.hash_size,
            layout="columnar",
        )
        self.path = path
        self.block = block
        self._mm = mapping
        self._thaws = thaws
        self._value_ids = dict(zip(block.values, range(len(block.values))))
        if len(self._value_ids) != len(block.values):
            raise SegmentFormatError(
                f"segment {self._name()} lists a value twice in its vocabulary"
            )
        # ``_postings`` memoises the views sliced so far, never the whole
        # vocabulary: everything that enumerates values reads the block.
        self._super_keys = MappedSuperKeys(
            block.row_table_ids,
            block.row_row_indexes,
            block.row_keys,
            block.key_width,
            block.spill,
        )

    def _name(self) -> str:
        return "(in memory)" if self.path is None else str(self.path)

    def __reduce__(self):
        """Pickle / deep-copy as an index over a heap copy of the block."""
        self._ensure_open("copying")
        return type(self), (self.block, None, None, self._thaws)

    def _slice(self, value: str) -> ColumnarPostingList | None:
        """Slice (and memoise) the posting views of ``value``."""
        value_id = self._value_ids.get(value)
        if value_id is None:
            return None
        block = self.block
        start = block.posting_offsets[value_id]
        end = block.posting_offsets[value_id + 1]
        width = block.key_width
        columns = ColumnarPostingList()
        columns.table_ids = block.table_ids[start:end]
        columns.column_indexes = block.column_indexes[start:end]
        columns.row_indexes = block.row_indexes[start:end]
        columns._packed_cache = (
            self._super_keys,
            0,
            end - start,
            None
            if value_id in block.unpacked
            else block.posting_keys[start * width : end * width],
        )
        self._postings[value] = columns
        return columns

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the block and unmap the segment file (idempotent).

        Any later ``fetch`` / ``fetch_batch`` raises
        :class:`~repro.exceptions.IndexClosedError`.  Fetch blocks handed
        out earlier keep their buffers alive: the OS unmaps the pages when
        the last exported view is released.
        """
        if self._closed:
            return
        self._closed = True
        self._postings = {}
        self._value_ids = {}
        self._super_keys.detach()
        self.block = SegmentBlock.empty(
            self.hash_function_name, self.hash_size, self.block.key_width
        )
        mapping = self._mm
        self._mm = None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # Still-exported buffers (live fetch blocks) pin the
                # mapping; it goes away with their last reference.
                pass

    # ------------------------------------------------------------------
    # The read surface, from the block
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.block.values)

    def __contains__(self, value: str) -> bool:
        return value in self._value_ids

    def values(self) -> Iterator[str]:
        """Iterate over the distinct indexed values (first-seen order)."""
        return iter(self.block.values)

    def num_posting_items(self) -> int:
        """Total number of PL items across all values."""
        return len(self.block.table_ids)

    def indexed_tables(self) -> set[int]:
        """Return the ids of all tables with at least one indexed row."""
        return self._super_keys.table_ids_present()

    def visible_counts(self, masked: Collection[int]) -> tuple[list[int], int]:
        """``(PL items per value, in :meth:`values` order; rows)`` outside
        the ``masked`` tables — see
        :func:`~repro.storage.segment_block.visible_counts`; nothing is
        sliced or memoised for a count."""
        return visible_counts(self.block, masked)

    def posting_columns(self, value: str) -> ColumnarPostingList | None:
        """Return the posting views of ``value`` (``None`` when not indexed)."""
        columns = self._postings.get(value)
        return self._slice(value) if columns is None else columns

    def posting_list(self, value: str) -> list[PostingListItem]:
        """Return the posting list of ``value`` (empty when not indexed)."""
        columns = self.posting_columns(value)
        return [] if columns is None else columns.items()

    def posting_list_length(self, value: str) -> int:
        """Return the number of PL items for ``value`` without slicing."""
        value_id = self._value_ids.get(value)
        if value_id is None:
            return 0
        offsets = self.block.posting_offsets
        return offsets[value_id + 1] - offsets[value_id]

    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch struct-of-arrays blocks (see the base class), slicing the
        views of the values probed for the first time."""
        self._ensure_open("fetch_batch")
        values = list(dict.fromkeys(values))
        sliced = self._postings
        known = self._value_ids
        for value in values:
            if value not in sliced and value in known:
                self._slice(value)
        return super().fetch_batch(values)

    def iter_posting_copies(self) -> Iterator[tuple[str, ColumnarPostingList]]:
        """Every value with a copy of its columns, sliced straight from the
        offsets — nothing is memoised on this index."""
        block = self.block
        bounds = block.posting_offsets
        for value, start, end in zip(block.values, bounds, bounds[1:]):
            columns = ColumnarPostingList()
            columns.table_ids.frombytes(block.table_ids[start:end].cast("B"))
            columns.column_indexes.frombytes(block.column_indexes[start:end].cast("B"))
            columns.row_indexes.frombytes(block.row_indexes[start:end].cast("B"))
            yield value, columns

    # ------------------------------------------------------------------
    # Mutation: a segment refuses, a built index thaws
    # ------------------------------------------------------------------
    def _mutate(self, operation: str, *args):
        self._ensure_open(operation)
        if not self._thaws:
            raise IndexError_(
                f"{operation} on the read-only segment {self._name()}; "
                "rebuild and rewrite it to change it"
            )
        self._thaw()
        return getattr(self, operation)(*args)

    def _thaw(self) -> None:
        """Become a plain :class:`~repro.index.InvertedIndex` holding what
        the block holds.  Fetch results handed out earlier stay valid: they
        keep the block's buffers alive."""
        plain = InvertedIndex(self.hash_function_name, self.hash_size, "columnar")
        for value, columns in self.iter_posting_copies():
            plain.set_posting_columns(value, columns)
        for table_id, row_index, super_key in self.iter_super_keys():
            plain.set_super_key(table_id, row_index, super_key)
        for name in ("path", "block", "_mm", "_thaws", "_value_ids"):
            del self.__dict__[name]
        self.__dict__.update(plain.__dict__)
        self.__class__ = InvertedIndex  # type: ignore[assignment]

    def add_posting(
        self, value: str, table_id: int, column_index: int, row_index: int
    ) -> None:
        self._mutate("add_posting", value, table_id, column_index, row_index)

    def set_posting_columns(self, value: str, columns: ColumnarPostingList) -> None:
        self._mutate("set_posting_columns", value, columns)

    def set_super_key(self, table_id: int, row_index: int, super_key: int) -> None:
        self._mutate("set_super_key", table_id, row_index, super_key)

    def or_into_super_key(self, table_id: int, row_index: int, value_hash: int) -> int:
        return self._mutate("or_into_super_key", table_id, row_index, value_hash)

    def remove_table(self, table_id: int) -> int:
        return self._mutate("remove_table", table_id)

    def remove_row(self, table_id: int, row_index: int) -> int:
        return self._mutate("remove_row", table_id, row_index)

    def remove_column(self, table_id: int, column_index: int) -> int:
        return self._mutate("remove_column", table_id, column_index)
