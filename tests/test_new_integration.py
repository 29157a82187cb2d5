"""Integration tests across the newer subsystems.

These exercise realistic end-to-end paths that cross module boundaries:
ingestion -> profiling -> key discovery -> discovery (plain, sharded, fuzzy),
so regressions in the glue — not just in the individual modules — are
caught.
"""

from __future__ import annotations

import pytest

from repro import DataLake, MateConfig, MateDiscovery, QueryTable, Table
from repro.core import ShardedMateDiscovery, exact_joinability_score
from repro.extensions import (
    SimilarityJoinDiscovery,
    discover_key_candidates,
    suggest_query,
)
from repro.index import build_index
from repro.lake import profile_corpus
from repro.storage import table_to_csv


@pytest.fixture()
def mixed_lake(tmp_path):
    """A lake ingested from CSV files with a known join."""
    orders = Table(
        table_id=0,
        name="orders",
        columns=["customer", "order_date", "amount"],
        rows=[
            ["muhammad lee", "2021-03-01", "120.5"],
            ["ansel adams", "2021-03-01", "80.0"],
            ["helmut newton", "2021-03-02", "310.0"],
            ["gretchen lee", "2021-03-03", "42.0"],
            # A repeat customer on another day: no single column is unique,
            # so <customer, order_date> is the minimal composite key.
            ["muhammad lee", "2021-03-03", "60.0"],
        ],
    )
    shipments = Table(
        table_id=1,
        name="shipments",
        columns=["kunde", "datum", "status"],
        rows=[
            ["muhammad lee", "2021-03-01", "delivered"],
            ["ansel adams", "2021-03-01", "pending"],
            ["helmut newton", "2021-03-02", "delivered"],
            ["someone else", "2021-03-09", "lost"],
        ],
    )
    complaints = Table(
        table_id=2,
        name="complaints",
        columns=["customer", "topic"],
        rows=[
            ["muhammad lee", "late delivery"],
            ["ansel adams", "damaged box"],
        ],
    )
    table_to_csv(orders, tmp_path / "orders.csv")
    table_to_csv(complaints, tmp_path / "complaints.csv")
    table_to_csv(shipments, tmp_path / "shipments.csv")
    return DataLake.from_directory(tmp_path, name="orders-lake")


class TestLakeToDiscoveryPipeline:
    def test_profile_feeds_configuration(self, mixed_lake):
        profile = profile_corpus(mixed_lake.corpus)
        config = profile.recommended_config(hash_size=256)
        assert config.hash_size == 256
        assert config.expected_unique_values == profile.num_unique_values
        index = build_index(mixed_lake.corpus, config=config)
        assert index.hash_size == 256

    def test_key_discovery_then_discovery(self, mixed_lake):
        orders = mixed_lake.table_by_source("orders")
        candidates = discover_key_candidates(orders, max_arity=2)
        assert any(
            set(c.columns) == {"customer", "order_date"} and c.is_unique
            for c in candidates
        )
        query = suggest_query(orders, prefer_arity=2)
        result = mixed_lake.discover(query, k=3)
        shipments = next(t for t in mixed_lake.corpus if t.name == "shipments")
        assert result.joinability_of(shipments.table_id) == 3

    def test_discovery_matches_brute_force(self, mixed_lake):
        orders = mixed_lake.table_by_source("orders")
        query = QueryTable(table=orders, key_columns=["customer", "order_date"])
        result = mixed_lake.discover(query, k=3)
        for entry in result.tables:
            if entry.table_id == orders.table_id:
                continue
            expected = exact_joinability_score(
                query, mixed_lake.corpus.get_table(entry.table_id)
            )
            assert entry.joinability == expected

    def test_sharded_discovery_over_ingested_lake(self, mixed_lake):
        orders = mixed_lake.table_by_source("orders")
        query = QueryTable(table=orders, key_columns=["customer", "order_date"])
        config = mixed_lake.effective_config().with_k(3)
        single = mixed_lake.discover(query, k=3)
        sharded = ShardedMateDiscovery(
            mixed_lake.corpus, num_shards=2, config=config
        ).discover(query, k=3)
        assert sorted(j for _, j in sharded.result_tuples()) == sorted(
            j for _, j in single.result_tuples()
        )

    def test_similarity_discovery_over_ingested_lake(self, mixed_lake):
        orders = mixed_lake.table_by_source("orders")
        query = QueryTable(table=orders, key_columns=["customer", "order_date"])
        fuzzy = SimilarityJoinDiscovery(
            mixed_lake.corpus,
            mixed_lake.index(),
            config=mixed_lake.effective_config(),
            max_distance=1,
        )
        results = {r.table_id: r for r in fuzzy.discover(query, k=3)}
        shipments = next(t for t in mixed_lake.corpus if t.name == "shipments")
        assert results[shipments.table_id].similarity_joinability >= 3


class TestUnicodeAndMessyInputs:
    def test_unicode_values_flow_through_the_whole_pipeline(self, tmp_path):
        table = Table(
            table_id=0,
            name="unicode",
            columns=["stadt", "land", "notiz"],
            rows=[
                ["münchen", "deutschland", "Oktoberfest"],
                ["kyōto", "日本", "temples"],
                ["zürich", "schweiz", "lake"],
            ],
        )
        table_to_csv(table, tmp_path / "unicode.csv")
        lake = DataLake.from_directory(tmp_path)
        query = QueryTable(
            table=lake.table_by_source("unicode"), key_columns=["stadt", "land"]
        )
        result = lake.discover(query, k=1)
        assert result.tables[0].joinability == 3

    def test_configured_engine_rejects_query_with_unknown_key(self, mixed_lake):
        orders = mixed_lake.table_by_source("orders")
        from repro.exceptions import DataModelError

        with pytest.raises(DataModelError):
            QueryTable(table=orders, key_columns=["customer", "no_such_column"])

    def test_alternative_hash_function_backing_the_lake_corpus(self, mixed_lake):
        config = MateConfig(hash_size=128, expected_unique_values=1000)
        index = build_index(mixed_lake.corpus, config=config, hash_function_name="bloom")
        engine = MateDiscovery(
            mixed_lake.corpus, index, config=config, hash_function_name="bloom"
        )
        orders = mixed_lake.table_by_source("orders")
        query = QueryTable(table=orders, key_columns=["customer", "order_date"])
        shipments = next(t for t in mixed_lake.corpus if t.name == "shipments")
        assert engine.discover(query, k=3).joinability_of(shipments.table_id) == 3
