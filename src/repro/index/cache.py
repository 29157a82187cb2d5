"""LRU posting-list cache and the transparent caching index wrapper.

Algorithm 1 spends its initialization step fetching posting lists for the
query's probe values (line 4).  In a serving deployment the same hot values
recur across queries — the Zipfian value distribution the paper's corpora
exhibit means a small cache absorbs a large share of the fetch traffic.  Two
classes implement the hot path:

* :class:`PostingListCache` — a thread-safe LRU mapping one probe value to
  its fetched postings, a packed struct-of-arrays
  :class:`~repro.index.columnar.FetchBlock` — instrumented with the
  :class:`~repro.metrics.counters.CacheCounters` hit/miss/eviction counters
  from :mod:`repro.metrics`;
* :class:`CachingIndex` — a read-through wrapper that sits between the
  discovery engine and an index, caching per-value fetch blocks while
  delegating the rest of the query surface unchanged.  A
  :class:`~repro.api.session.DiscoverySession` wraps its index in one unless
  ``ServiceConfig.cache_capacity`` is 0.

Caching is transparent by construction: ``CachingIndex.fetch_batch`` returns
exactly what the wrapped index would return (same blocks, same order), so a
:class:`~repro.core.discovery.MateDiscovery` engine produces identical
results with or without the cache.  The one mutation of an index,
:meth:`~repro.index.inverted.InvertedIndex.replace_block`, clears the whole
cache (a rewritten block can change any value's postings or keys).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Iterable

from ..datamodel import MISSING
from ..exceptions import ConfigurationError
from ..metrics import CacheCounters
from .columnar import FetchBlock


class PostingListCache:
    """Thread-safe LRU cache of per-value fetch results.

    Entries map one probe value to its fetched postings — possibly empty,
    since negative results are cached too (a value absent from the index
    stays absent until the index's block is replaced).
    """

    def __init__(self, capacity: int = 4096, counters: CacheCounters | None = None):
        if capacity <= 0:
            raise ConfigurationError(
                f"cache capacity must be positive, got {capacity}"
            )
        #: Maximum number of cached values.
        self.capacity = capacity
        #: Hit/miss/eviction accounting (read by the session's batch stats).
        self.counters = counters or CacheCounters()
        self._entries: OrderedDict[str, FetchBlock] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, value: str) -> FetchBlock | None:
        """Return the cached block for ``value`` (``None`` on a miss).

        A hit refreshes the entry's recency; both outcomes are counted.
        """
        with self._lock:
            try:
                entry = self._entries[value]
            except KeyError:
                self.counters.misses += 1
                return None
            self._entries.move_to_end(value)
            self.counters.hits += 1
            return entry

    def put(self, value: str, block: FetchBlock) -> None:
        """Cache the fetch block of ``value``, evicting LRU entries if full."""
        with self._lock:
            self._entries[value] = block
            self._entries.move_to_end(value)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.counters.evictions += 1

    def clear(self) -> None:
        """Drop every cached entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()


class CachingIndex:
    """Read-through posting-list cache in front of any index.

    Wraps an index (an :class:`~repro.index.inverted.InvertedIndex` or a
    :class:`~repro.ingest.live.LiveIndex`) and serves ``fetch_batch`` per
    value from the LRU cache, falling back to one batched fetch of all
    missing values.  Everything else — ``posting_lengths``, super keys, the
    statistics reads — is delegated to the wrapped index.
    """

    def __init__(
        self,
        index,
        capacity: int = 4096,
        cache: PostingListCache | None = None,
    ):
        self._index = index
        #: The underlying LRU cache (exposes the hit/miss counters).
        self.cache = cache or PostingListCache(capacity)

    @property
    def counters(self) -> CacheCounters:
        """The cache's hit/miss/eviction counters."""
        return self.cache.counters

    @property
    def wrapped(self):
        """The index this wrapper caches for."""
        return self._index

    # ------------------------------------------------------------------
    # Cached retrieval
    # ------------------------------------------------------------------
    def fetch_batch(self, values: Iterable[str]) -> list[FetchBlock]:
        """Fetch blocks for ``values``, serving cached values from the LRU.

        Identical output to the wrapped index's ``fetch_batch``: duplicate
        probe values collapse, missing values are skipped, per-value block
        order is preserved, and values without postings yield no block (an
        empty block is cached so the negative result is remembered).
        """
        ordered = [v for v in dict.fromkeys(values) if v != MISSING]
        resolved: dict[str, FetchBlock] = {}
        missing: list[str] = []
        for value in ordered:
            entry = self.cache.get(value)
            if entry is None:
                missing.append(value)
            else:
                resolved[value] = entry

        if missing:
            produced = {
                block.value: block for block in self._index.fetch_batch(missing)
            }
            for value in missing:
                block = produced.get(value)
                if block is None:
                    block = FetchBlock.empty(value)
                self.cache.put(value, block)
                resolved[value] = block

        return [
            resolved[value] for value in ordered if len(resolved[value])
        ]

    # ------------------------------------------------------------------
    # Mutation (delegates, invalidating every entry)
    # ------------------------------------------------------------------
    def replace_block(self, block) -> None:
        """Install a rewritten block in the wrapped index; clears the cache."""
        self._index.replace_block(block)
        self.cache.clear()

    # ------------------------------------------------------------------
    # Delegated query surface
    # ------------------------------------------------------------------
    def __getattr__(self, name: str):
        """Delegate everything else (counts, super keys) to the index."""
        return getattr(self._index, name)
