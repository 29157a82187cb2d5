"""Value-partitioned (scale-out) extended inverted index.

:class:`~repro.core.parallel.ShardedMateDiscovery` shards the *corpus* and
runs one full engine per shard.  This module shards the *index* instead —
the architecture a serving deployment of the paper's system would use: one
logical index whose posting lists are partitioned across workers by
``hash(value) % num_shards``, queried by a single engine.

A :class:`ShardedInvertedIndex` is a value-hash partition of one index block
(:meth:`ShardedInvertedIndex.from_index`):

* **postings** of a value live on the shard :func:`shard_of_value` picks — a
  stable CRC-32 based hash, so shard assignment survives persistence and
  process restarts (Python's builtin ``hash`` is salted per process); each
  shard is an :class:`~repro.index.inverted.InvertedIndex` over its values'
  postings, in first-seen order;
* **super keys** are keyed by row, not by value: every shard shares the
  source block's row table, uncopied, so any shard resolves any row's key
  and ``fetch_batch`` hands back each value's block with its packed keys
  attached, exactly as line 4 of Algorithm 1 requires.  That is also the
  layout :func:`save_shard_segments` writes, one ``.seg`` file per shard, so
  a worker mapping a single shard file serves it alone;
* ``fetch``/``fetch_batch`` optionally fan out across shards on a thread
  pool (``max_workers``), the same worker-pool idiom
  :class:`~repro.core.parallel.ShardedMateDiscovery` uses for per-shard
  engines.

A sharded index is read-only: to edit one, maintain the monolithic index
(:class:`~repro.index.maintenance.IndexMaintainer`) and partition it again.

Sharded fetch is *bit-identical* to monolithic fetch on the same corpus:
values are deduplicated in first-seen order and each value's posting list
keeps its order, so ``ShardedInvertedIndex.fetch(values) ==
InvertedIndex.fetch(values)`` — the property ``tests/test_service.py``
asserts.
"""

from __future__ import annotations

import json
import zlib
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..config import MateConfig
from ..datamodel import MISSING, TableCorpus
from ..exceptions import IndexError_
from .builder import build_index
from .columnar import ColumnarPostingList, FetchBlock, FetchSurface
from .inverted import InvertedIndex
from .posting import PostingListItem


def shard_of_value(value: str, num_shards: int) -> int:
    """Return the shard owning ``value``'s posting list.

    Uses CRC-32 rather than Python's builtin ``hash`` so the assignment is
    deterministic across processes — a sharded index written through a
    :class:`~repro.storage.backend.StorageBackend` must route the same value
    to the same shard after it is reloaded elsewhere.
    """
    if num_shards == 1:
        return 0
    return zlib.crc32(value.encode("utf-8")) % num_shards


class ShardedInvertedIndex(FetchSurface):
    """An extended inverted index partitioned by value hash.

    Drop-in compatible with the read surface of
    :class:`~repro.index.inverted.InvertedIndex` for every consumer in the
    repository (discovery engine, column selectors, caching); see the module
    docstring for the partitioning rules.  ``shards[i]`` must hold exactly
    the values :func:`shard_of_value` routes to shard ``i``, each with the
    whole row table — what :meth:`from_index` and
    :func:`open_shard_segments` build.
    """

    def __init__(
        self, shards: Sequence[InvertedIndex], max_workers: int | None = None
    ):
        if not shards:
            raise IndexError_("a sharded index needs at least one shard")
        first = shards[0]
        for shard in shards[1:]:
            if (shard.hash_function_name, shard.hash_size) != (
                first.hash_function_name,
                first.hash_size,
            ):
                raise IndexError_(
                    "cannot shard an index across differently hashed blocks"
                )
        #: Name of the hash function the super keys were generated with.
        self.hash_function_name = first.hash_function_name
        #: Width of the stored super keys in bits.
        self.hash_size = first.hash_size
        #: Number of worker threads used to fan ``fetch`` out across shards
        #: (``None`` or 1 fetches serially).
        self.max_workers = max_workers
        self._shards = list(shards)

    @classmethod
    def from_index(
        cls,
        index: InvertedIndex,
        num_shards: int,
        max_workers: int | None = None,
    ) -> "ShardedInvertedIndex":
        """Partition a monolithic index into ``num_shards`` shards: one
        :func:`shard_of_value` per vocabulary value, one gather of the
        posting columns per shard, the row table shared by all."""
        if num_shards <= 0:
            raise IndexError_(f"num_shards must be positive, got {num_shards}")
        # Imported here: ``repro.storage`` itself imports ``repro.index``.
        from ..storage.segment_block import partition_block

        block = index.block
        owners = [shard_of_value(value, num_shards) for value in block.values]
        parts = partition_block(block, owners, num_shards)
        return cls([InvertedIndex(part) for part in parts], max_workers=max_workers)

    # ------------------------------------------------------------------
    # Shard topology
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        """Number of posting-list partitions."""
        return len(self._shards)

    def shard_of(self, value: str) -> int:
        """Return the shard index owning ``value``."""
        return shard_of_value(value, self.num_shards)

    def shard(self, shard_index: int) -> InvertedIndex:
        """Return one posting-list partition (for persistence and tests)."""
        return self._shards[shard_index]

    def shard_sizes(self) -> list[int]:
        """Number of PL items per shard (the balance a deployment watches)."""
        return [shard.num_posting_items() for shard in self._shards]

    def close(self) -> None:
        """Close every shard, unmapping shard segment files (idempotent)."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "ShardedInvertedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection (mirrors InvertedIndex)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of distinct indexed values (shards are disjoint)."""
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, value: str) -> bool:
        return value in self._shards[self.shard_of(value)]

    def values(self) -> Iterator[str]:
        """Iterate over the distinct indexed values, shard by shard."""
        for shard in self._shards:
            yield from shard.values()

    def num_posting_items(self) -> int:
        """Total number of PL items across all shards."""
        return sum(self.shard_sizes())

    # Rows are shared: every shard carries the whole row table.
    def num_rows(self) -> int:
        """Number of rows that own a super key."""
        return self._shards[0].num_rows()

    def indexed_tables(self) -> set[int]:
        """Return the ids of all tables with at least one indexed row."""
        return self._shards[0].indexed_tables()

    def super_key(self, table_id: int, row_index: int) -> int:
        """Return the super key of a row."""
        return self._shards[0].super_key(table_id, row_index)

    def has_row(self, table_id: int, row_index: int) -> bool:
        """Return whether a super key is stored for the row."""
        return self._shards[0].has_row(table_id, row_index)

    def iter_super_keys(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over ``(table_id, row_index, super_key)`` triples."""
        return self._shards[0].iter_super_keys()

    def posting_list(self, value: str) -> list[PostingListItem]:
        """Return the posting list of ``value`` (empty when not indexed)."""
        return self._shards[self.shard_of(value)].posting_list(value)

    def posting_columns(self, value: str) -> ColumnarPostingList | None:
        """Return the posting view of ``value``."""
        return self._shards[self.shard_of(value)].posting_columns(value)

    def posting_list_length(self, value: str) -> int:
        """Return the number of PL items for ``value`` without copying."""
        return self._shards[self.shard_of(value)].posting_list_length(value)

    # ------------------------------------------------------------------
    # Discovery-phase retrieval
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch the postings of ``values`` as struct-of-arrays blocks.

        Probe values are routed to their owning shard (concurrently when
        ``max_workers`` > 1), each shard serves its own blocks — packed keys
        sliced from its block — and the blocks are reassembled in the
        original first-seen value order: identical content to
        :meth:`InvertedIndex.fetch_batch
        <repro.index.inverted.InvertedIndex.fetch_batch>` on the same corpus.
        """
        ordered = [v for v in dict.fromkeys(values) if v != MISSING]
        by_shard: dict[int, list[str]] = defaultdict(list)
        for value in ordered:
            by_shard[self.shard_of(value)].append(value)
        blocks: dict[str, FetchBlock] = {}
        for shard_blocks in self._map_shards(self._fetch_shard_blocks, by_shard):
            blocks.update(shard_blocks)
        return [blocks[value] for value in ordered if value in blocks]

    def _map_shards(self, worker, by_shard: dict[int, list[str]]):
        """Run ``worker`` over the shard routing, on a pool when configured."""
        entries = list(by_shard.items())
        if self.max_workers and self.max_workers > 1 and len(entries) > 1:
            with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
                return list(pool.map(worker, entries))
        return [worker(entry) for entry in entries]

    def _fetch_shard_blocks(
        self, entry: tuple[int, list[str]]
    ) -> dict[str, FetchBlock]:
        """Fetch the blocks of one shard's values (pool worker)."""
        shard_index, shard_values = entry
        return {
            block.value: block
            for block in self._shards[shard_index].fetch_batch(shard_values)
        }


#: Name of the per-directory manifest describing a saved sharded index.
SHARD_MANIFEST_NAME = "manifest.json"


def save_shard_segments(
    index: ShardedInvertedIndex, directory: str | Path
) -> Path:
    """Persist every shard of a sharded index as a ``.seg`` file.

    Writes ``shard_NN.seg`` per posting-list partition plus a
    ``manifest.json`` recording the topology (shard count, hash function and
    size, segment names), so :func:`open_shard_segments` can reconstruct the
    exact same value routing — CRC-based :func:`shard_of_value` assignment
    only holds if the shard count matches.  Each shard is written as it is:
    its block already carries the whole row table, so every worker mapping a
    single shard resolves any row's super key — the property the
    process-per-shard serving mode relies on.
    """
    from ..storage.paged import write_segment

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for shard_index in range(index.num_shards):
        name = f"shard_{shard_index:02d}.seg"
        write_segment(index.shard(shard_index), directory / name)
        names.append(name)
    manifest = {
        "num_shards": index.num_shards,
        "hash_function": index.hash_function_name,
        "hash_size": index.hash_size,
        "segments": names,
    }
    (directory / SHARD_MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2), encoding="utf-8"
    )
    return directory


def _read_manifest(path: Path) -> tuple[list[str], str, int]:
    """``(segment names, hash function, hash size)`` of a shard manifest,
    every field checked: anything else raises an
    :class:`~repro.exceptions.IndexError_` naming the file."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IndexError_(f"shard manifest {path} is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise IndexError_(f"shard manifest {path} is not a JSON object")
    num_shards = manifest.get("num_shards")
    segments = manifest.get("segments")
    if type(num_shards) is not int or num_shards < 1:
        raise IndexError_(
            f"shard manifest {path} declares num_shards {num_shards!r}; "
            "a sharded index has an integer count of at least 1"
        )
    if (
        not isinstance(segments, list)
        or len(segments) != num_shards
        or not all(isinstance(name, str) for name in segments)
    ):
        raise IndexError_(
            f"shard manifest {path} names the segments {segments!r} for "
            f"{num_shards} shards"
        )
    hash_function = manifest.get("hash_function")
    hash_size = manifest.get("hash_size")
    if not isinstance(hash_function, str) or type(hash_size) is not int:
        raise IndexError_(
            f"shard manifest {path} lacks a valid hash_function / hash_size "
            f"(found {hash_function!r} / {hash_size!r})"
        )
    return segments, hash_function, hash_size


def open_shard_segments(
    directory: str | Path,
    max_workers: int | None = None,
) -> ShardedInvertedIndex:
    """Map a directory written by :func:`save_shard_segments`: a
    :class:`ShardedInvertedIndex` over read-only mapped shards, whose pages
    the OS shares across processes mapping the same files."""
    from ..storage.paged import reopen_segment

    directory = Path(directory)
    manifest_path = directory / SHARD_MANIFEST_NAME
    if not manifest_path.is_file():
        raise IndexError_(
            f"no {SHARD_MANIFEST_NAME} in {directory}; not a saved "
            "sharded index"
        )
    segments, hash_function, hash_size = _read_manifest(manifest_path)
    opened: list[InvertedIndex] = []
    try:
        for name in segments:
            opened.append(
                reopen_segment(
                    directory / name,
                    hash_function_name=hash_function,
                    hash_size=hash_size,
                )
            )
    except BaseException:
        for segment in opened:
            segment.close()
        raise
    return ShardedInvertedIndex(opened, max_workers=max_workers)


def build_sharded_index(
    corpus: TableCorpus,
    num_shards: int = 4,
    config: MateConfig | None = None,
    hash_function_name: str = "xash",
    max_workers: int | None = None,
) -> ShardedInvertedIndex:
    """Build a :class:`ShardedInvertedIndex` for ``corpus`` in one call: the
    bulk build, partitioned."""
    return ShardedInvertedIndex.from_index(
        build_index(corpus, config=config, hash_function_name=hash_function_name),
        num_shards,
        max_workers=max_workers,
    )
