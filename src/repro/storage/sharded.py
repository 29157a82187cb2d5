"""Persisting sharded indexes through any :class:`StorageBackend`.

A :class:`~repro.index.sharded.ShardedInvertedIndex` is persisted as one
backend index per shard under the derived names ``{name}.shard{i}of{n}`` —
the shard count is encoded in the name so that a reader can discover the
layout with nothing but :meth:`StorageBackend.list_indexes
<repro.storage.backend.StorageBackend.list_indexes>`.  Shard 0 additionally
carries the (row-keyed, shard-independent) super keys; the other shards
store only their posting-list partition.

Loading lays every shard's postings and shard 0's super keys out as one
block (:meth:`SegmentBlock.from_postings
<repro.storage.segment_block.SegmentBlock.from_postings>`) and partitions it
again (:meth:`ShardedInvertedIndex.from_index
<repro.index.sharded.ShardedInvertedIndex.from_index>`).  Routing uses the
process-stable :func:`shard_of_value <repro.index.sharded.shard_of_value>`
hash, so every value returns to exactly the shard it was saved from and a
round trip reproduces the index bit for bit (asserted by
``tests/test_service.py``).
"""

from __future__ import annotations

import re
from itertools import chain

from ..exceptions import StorageError
from ..index import InvertedIndex, ShardedInvertedIndex
from .backend import StorageBackend
from .segment_block import SegmentBlock

_SHARD_NAME = "{name}.shard{index}of{count}"
_SHARD_PATTERN = re.compile(r"^(?P<name>.+)\.shard(?P<index>\d+)of(?P<count>\d+)$")


def shard_index_name(name: str, shard_index: int, num_shards: int) -> str:
    """Return the backend name one shard of a sharded index is stored under."""
    return _SHARD_NAME.format(name=name, index=shard_index, count=num_shards)


def save_sharded_index(
    backend: StorageBackend, name: str, index: ShardedInvertedIndex
) -> None:
    """Persist ``index`` shard by shard under ``name`` (replacing earlier shards).

    Any shards previously stored under the same base name — including a
    layout with a *different* shard count — are deleted first, so a re-save
    can never leave a stale layout behind for :func:`load_sharded_index` to
    pick up.
    """
    for stored in backend.list_indexes():
        match = _SHARD_PATTERN.match(stored)
        if match is not None and match.group("name") == name:
            backend.delete_index(stored)
    for shard_index in range(index.num_shards):
        shard = index.shard(shard_index)
        if shard_index:
            # Only shard 0 stores the super keys every shard shares.
            shard = InvertedIndex(
                SegmentBlock.from_postings(
                    index.hash_function_name,
                    index.hash_size,
                    shard.block.postings(),
                    (),
                )
            )
        backend.save_index(
            shard_index_name(name, shard_index, index.num_shards), shard
        )


def list_sharded_indexes(backend: StorageBackend) -> dict[str, int]:
    """Return ``{name: num_shards}`` for every sharded index in ``backend``.

    Only *complete* layouts (all ``num_shards`` shard records present) are
    reported.  :func:`save_sharded_index` keeps at most one layout per name;
    should a backend nevertheless hold several complete layouts for the same
    name, the smallest shard count wins deterministically.
    """
    shards_seen: dict[tuple[str, int], set[int]] = {}
    for stored in backend.list_indexes():
        match = _SHARD_PATTERN.match(stored)
        if match is not None:
            key = (match.group("name"), int(match.group("count")))
            shards_seen.setdefault(key, set()).add(int(match.group("index")))
    found: dict[str, int] = {}
    for (name, count), indexes in sorted(shards_seen.items()):
        if indexes == set(range(count)) and name not in found:
            found[name] = count
    return found


def load_sharded_index(
    backend: StorageBackend, name: str, max_workers: int | None = None
) -> ShardedInvertedIndex:
    """Load the sharded index stored under ``name``.

    The shard count is discovered from the stored names; every shard must be
    present or a :class:`~repro.exceptions.StorageError` is raised.
    """
    num_shards = list_sharded_indexes(backend).get(name)
    if num_shards is None:
        raise StorageError(f"no sharded index stored under name {name!r}")
    shards = [
        backend.load_index(shard_index_name(name, shard_index, num_shards))
        for shard_index in range(num_shards)
    ]
    block = SegmentBlock.from_postings(
        shards[0].hash_function_name,
        shards[0].hash_size,
        chain.from_iterable(shard.block.postings() for shard in shards),
        shards[0].iter_super_keys(),
    )
    return ShardedInvertedIndex.from_index(
        InvertedIndex(block), num_shards, max_workers=max_workers
    )
