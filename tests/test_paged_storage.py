"""Tests for the paged posting store and fetch-cost model (repro.storage.paged)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MateConfig
from repro.datagen import generate_corpus
from repro.exceptions import StorageError
from repro.index import build_index
from repro.storage import FetchCostModel, PagedPostingStore

CONFIG = MateConfig(expected_unique_values=100_000)


@pytest.fixture(scope="module")
def corpus_and_index():
    corpus = generate_corpus("webtables", seed=5, scale=0.15)
    index = build_index(corpus, config=CONFIG)
    return corpus, index


class TestFetchCostModel:
    def test_cost_grows_with_pages(self):
        model = FetchCostModel()
        assert model.cost(10) > model.cost(1) > model.cost(0) == 0.0

    def test_cached_pages_are_cheaper(self):
        model = FetchCostModel()
        assert model.cost(0, pages_cached=10) < model.cost(10, pages_cached=0)

    def test_negative_counts_rejected(self):
        with pytest.raises(StorageError):
            FetchCostModel().cost(-1)
        with pytest.raises(StorageError):
            FetchCostModel().cost(1, pages_cached=-1)

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_property_cost_is_monotone(self, pages, cached):
        model = FetchCostModel()
        assert model.cost(pages + 1, cached) >= model.cost(pages, cached)
        assert model.cost(pages, cached + 1) >= model.cost(pages, cached)


class TestPagedPostingStoreLayout:
    @pytest.mark.parametrize("hash_size, key_bytes", [(128, 16), (512, 64)])
    def test_per_cell_layout_is_modelled_at_the_index_key_width(
        self, corpus_and_index, hash_size, key_bytes
    ):
        corpus, _ = corpus_and_index
        index = build_index(
            corpus, config=MateConfig(hash_size=hash_size, expected_unique_values=100_000)
        )
        postings = index.num_posting_items()
        store = PagedPostingStore(index, page_size_bytes=4096)
        assert store.storage_bytes() == postings * (24 + key_bytes)
        per_row = PagedPostingStore(index, page_size_bytes=4096, include_super_keys=False)
        assert per_row.storage_bytes() == postings * 24
        # Wider keys, wider posting lists: more pages to read.
        assert store.num_pages > per_row.num_pages
        assert store.num_pages >= -(-postings * (24 + key_bytes) // 4096)

    def test_every_indexed_value_has_pages(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        assert store.num_pages >= 1
        for value in index.values():
            pages = store.pages_for_value(value)
            assert pages
            assert all(0 <= page < store.num_pages for page in pages)

    def test_unknown_value_has_no_pages(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        assert store.pages_for_value("value-that-does-not-exist") == ()

    def test_long_posting_lists_span_multiple_pages(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index, page_size_bytes=256)
        longest_value = max(index.values(), key=index.posting_list_length)
        assert len(store.pages_for_value(longest_value)) > 1

    def test_super_key_layout_is_wider(self, corpus_and_index):
        _, index = corpus_and_index
        with_keys = PagedPostingStore(index, include_super_keys=True)
        without_keys = PagedPostingStore(index, include_super_keys=False)
        assert with_keys.storage_bytes() > without_keys.storage_bytes()
        assert with_keys.num_pages >= without_keys.num_pages

    def test_invalid_parameters(self, corpus_and_index):
        _, index = corpus_and_index
        with pytest.raises(StorageError):
            PagedPostingStore(index, page_size_bytes=0)
        with pytest.raises(StorageError):
            PagedPostingStore(index, buffer_pool_pages=-1)


class TestPagedPostingStoreFetch:
    def test_fetch_returns_same_items_as_index(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        values = sorted(index.values())[:20]
        assert store.fetch(values) == index.fetch(values)

    def test_accounting_accumulates(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        values = sorted(index.values())[:10]
        store.fetch(values)
        first = store.accounting.as_dict()
        store.fetch(values)
        second = store.accounting.as_dict()
        assert second["fetches"] == 2
        assert second["values_probed"] == first["values_probed"] * 2
        assert second["estimated_seconds"] >= first["estimated_seconds"]

    def test_repeated_fetch_hits_the_buffer_pool(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index, buffer_pool_pages=10_000)
        values = sorted(index.values())[:25]
        store.fetch(values)
        cold_pages = store.accounting.pages_read
        store.fetch(values)
        assert store.accounting.pages_read == cold_pages
        assert store.accounting.pages_from_cache > 0
        assert store.accounting.cache_hit_ratio > 0.0

    def test_zero_capacity_buffer_never_caches(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index, buffer_pool_pages=0)
        values = sorted(index.values())[:10]
        store.fetch(values)
        store.fetch(values)
        assert store.accounting.pages_from_cache == 0

    def test_lru_eviction_bounds_cache_benefit(self, corpus_and_index):
        _, index = corpus_and_index
        tiny = PagedPostingStore(index, page_size_bytes=512, buffer_pool_pages=1)
        large = PagedPostingStore(index, page_size_bytes=512, buffer_pool_pages=10_000)
        values = sorted(index.values())[:50]
        for _ in range(2):
            tiny.fetch(values)
            large.fetch(values)
        assert tiny.accounting.pages_from_cache <= large.accounting.pages_from_cache

    def test_missing_and_duplicate_probe_values(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        value = next(iter(sorted(index.values())))
        items = store.fetch([value, value, "", "no-such-value"])
        assert items == index.fetch([value])
        assert store.accounting.values_probed == 2  # "" is dropped, dup collapsed

    def test_estimated_fetch_seconds_is_side_effect_free(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        values = sorted(index.values())[:30]
        estimate = store.estimated_fetch_seconds(values)
        assert estimate > 0.0
        assert store.accounting.fetches == 0

    def test_reset_accounting(self, corpus_and_index):
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        store.fetch(sorted(index.values())[:5])
        store.reset_accounting()
        assert store.accounting.fetches == 0
        assert store.accounting.cache_hit_ratio == 0.0

    def test_fetch_cost_scales_with_query_breadth(self, corpus_and_index):
        """Fetching more distinct values touches at least as many pages."""
        _, index = corpus_and_index
        store = PagedPostingStore(index)
        values = sorted(index.values())
        narrow = store.estimated_fetch_seconds(values[:5])
        broad = store.estimated_fetch_seconds(values[:100])
        assert broad >= narrow
