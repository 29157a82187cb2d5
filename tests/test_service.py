"""Tests for serving one index: its memoised fetch blocks and session
batches."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro import (
    ConfigurationError,
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    LiveIndex,
    MateDiscovery,
    ServiceConfig,
    ShardedMateDiscovery,
    build_index,
)
from repro.datamodel import Table, TableCorpus
from repro.index import InvertedIndex, kernels
from repro.metrics import CacheCounters
from repro.core.column_selection import complete_key_tuples, probe_values
from repro.storage import reopen_segment, write_segment
from tests.helpers import assert_live_matches_bulk, fetch_items, row_keys


@pytest.fixture(scope="module")
def service_config() -> MateConfig:
    return MateConfig(hash_size=128, k=5, expected_unique_values=100_000)


@pytest.fixture(scope="module")
def workload():
    from repro.datagen import build_workload

    return build_workload("WT_10", seed=23, num_queries=3, corpus_scale=0.15)


@pytest.fixture(scope="module")
def monolithic_index(workload, service_config):
    return build_index(workload.corpus, config=service_config)


def requests_for(workload, engine: str = "mate") -> list[DiscoveryRequest]:
    return [DiscoveryRequest(query=query, engine=engine) for query in workload.queries]


def counts(result) -> dict[str, int]:
    """The integer counters of a run (everything but its timings)."""
    counters = result.counters
    return {
        field.name: getattr(counters, field.name)
        for field in fields(counters)
        if field.type == "int"
    }


@pytest.fixture(params=["heap", "mapped"])
def served_index(request, workload, service_config, tmp_path):
    """A bulk-built heap index, or the same block written to a ``.seg`` file
    and reopened the way a process-pool worker serves its shard."""
    index = build_index(workload.corpus, config=service_config)
    if request.param == "heap":
        yield index
        return
    path = write_segment(index, tmp_path / "shard_00.seg", fsync=False)
    mapped = reopen_segment(
        path,
        hash_function_name=index.hash_function_name,
        hash_size=index.hash_size,
    )
    yield mapped
    mapped.close()


def count_coverage_passes(monkeypatch) -> list[int]:
    """Count every :func:`repro.index.kernels.entry_coverage` vector pass
    (fetch blocks import it at call time, so the patch reaches them)."""
    calls = [0]
    original = kernels.entry_coverage

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(kernels, "entry_coverage", counted)
    return calls


class TestMemoisedFetchBlocks:
    """The index memoises one fetch block per value: every fetch hands out
    the same object, coverage memo included; a live index hands out a new
    one only for the values an edit touched."""

    def test_fetch_returns_the_same_block(self, served_index):
        values = sorted(served_index.values())[:40]
        probed = values + ["definitely-not-indexed"]
        first = served_index.fetch_batch(probed)
        second = served_index.fetch_batch(list(reversed(probed)))
        assert [block.value for block in first] == values
        by_value = {block.value: block for block in second}
        assert all(by_value[block.value] is block for block in first)
        fresh = InvertedIndex(served_index.block)
        assert fetch_items(served_index, values) == fetch_items(fresh, values)
        assert served_index.posting_lengths(probed) == [
            len(block) for block in first
        ] + [0]

    def test_repeated_request_computes_no_coverage(
        self, workload, service_config, served_index, monkeypatch
    ):
        """An engine straight over the index, as a pool worker runs it:
        the second pass finds every coverage bitmap memoised."""
        calls = count_coverage_passes(monkeypatch)
        engine = MateDiscovery(workload.corpus, served_index, config=service_config)
        first = [engine.discover(query) for query in workload.queries]
        cold = calls[0]
        again = [engine.discover(query) for query in workload.queries]
        assert cold > 0
        assert calls[0] == cold
        for one, other in zip(first, again):
            assert one.result_tuples() == other.result_tuples()
            assert counts(one) == counts(other)

    @pytest.mark.parametrize("reopened", [False, True], ids=["memory", "directory"])
    def test_a_live_edit_hands_out_new_blocks(
        self, workload, service_config, tmp_path, reopened
    ):
        """An edit through the session — remove a table, ingest a new one —
        on a live index whose tables sit in one segment (in memory, or
        mapped from a reopened directory): the values it touched come back
        as new blocks, every other value as its memoised block, and
        fetches, answers and counts equal a bulk build of the edited
        corpus."""
        directory = tmp_path / "live" if reopened else None
        live = LiveIndex(config=service_config, directory=directory, fsync=False)
        session = DiscoverySession(TableCorpus(name="edited"), live, config=service_config)
        for table in workload.corpus:
            session.ingest(table)
        live.seal()
        if reopened:
            session.close()
            live.close()
            live = LiveIndex.open(directory, config=service_config, fsync=False)
            session = DiscoverySession(session.corpus, live, config=service_config)
        values = sorted(build_index(workload.corpus, config=service_config).values())
        before = {block.value: block for block in live.fetch_batch(values)}
        dropped = workload.corpus.get_table(workload.corpus.table_ids()[0])
        session.remove(dropped.table_id)
        session.ingest(
            Table(
                table_id=workload.corpus.next_table_id(),
                name="inserted",
                columns=["a", "b"],
                rows=[[value, value] for value in values[:20]],
            )
        )
        touched = set(values[:20]).union(*dropped.rows)
        after = live.fetch_batch(values)
        renewed = {block.value for block in after if block is not before.get(block.value)}
        assert renewed == touched & {block.value for block in after}
        assert_live_matches_bulk(session, live, workload.queries, values)
        session.close()
        live.close()


def test_counter_snapshots():
    counters = CacheCounters(hits=3, misses=1, evictions=2)
    snap = counters.snapshot()
    counters.hits += 2
    delta = counters.delta_since(snap)
    assert (delta.hits, delta.misses, delta.evictions) == (2, 0, 0)
    assert counters.lookups == 6
    assert CacheCounters().hit_rate == 0.0


class TestSessionBatch:
    """``discover_batch`` answers exactly what sequential runs do."""

    @pytest.mark.parametrize("max_workers", [1, 3])
    def test_batch_matches_sequential_discovery(
        self, workload, service_config, monolithic_index, max_workers
    ):
        sequential = [
            MateDiscovery(
                workload.corpus, monolithic_index, config=service_config
            ).discover(query)
            for query in workload.queries
        ]
        with DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(max_workers=max_workers),
        ) as session:
            batch = session.discover_batch(requests_for(workload))
        assert len(batch) == len(workload.queries)
        for cold, served in zip(sequential, batch):
            assert served.result_tuples() == cold.result_tuples()

    def test_batch_stats(self, workload, service_config, monolithic_index):
        session = DiscoverySession(
            workload.corpus, monolithic_index, config=service_config
        )
        requests = requests_for(workload)
        first = session.discover_batch(requests)
        stats = first.stats
        assert stats.num_queries == len(requests)
        assert stats.batch_seconds > 0
        assert stats.queries_per_second > 0
        assert set(stats.as_dict()) == {
            "num_queries", "k", "batch_seconds", "queries_per_second",
            "failed_queries",
        }
        second = session.discover_batch(requests)
        for a, b in zip(first, second):
            assert a.result_tuples() == b.result_tuples()
        assert session.discover_batch([]).stats.num_queries == 0
        session.close()

    def test_probe_values_match_engine_initialization(
        self, workload, service_config, monolithic_index
    ):
        engine = MateDiscovery(
            workload.corpus, monolithic_index, config=service_config
        )
        for query in workload.queries:
            initial = engine.column_selector(query, monolithic_index)
            values = probe_values(
                complete_key_tuples(query), query.key_columns.index(initial)
            )
            assert values  # every generated query has complete key tuples
            key_map = engine._build_key_super_key_map(query, initial)
            assert values == list(key_map)

    def test_session_serves_its_index_as_is(
        self, workload, service_config, monolithic_index
    ):
        with DiscoverySession(
            workload.corpus, monolithic_index, config=service_config
        ) as session:
            session.discover_batch(requests_for(workload))
            assert session.index is monolithic_index
            assert session.base_index is monolithic_index
            assert session.cache_counters.lookups == 0


class TestOneIndexPerSession:
    """``ServiceConfig.num_shards`` is the ``"sharded"`` engine's table-shard
    count only: the session serves the index it is given, unpartitioned."""

    def test_num_shards_leaves_the_index_alone(
        self, workload, service_config, monolithic_index
    ):
        plain = DiscoverySession(
            workload.corpus, monolithic_index, config=service_config
        )
        sharded = DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(num_shards=2),
        )
        with plain, sharded:
            assert sharded.index is monolithic_index
            mate = sharded.discover_batch(requests_for(workload)).results
            unsharded = plain.discover_batch(requests_for(workload)).results
            over_shards = sharded.discover_batch(
                requests_for(workload, engine="sharded")
            ).results
        for one, other, table_shards in zip(mate, unsharded, over_shards):
            assert one.result_tuples() == other.result_tuples()
            assert counts(one) == counts(other)
            assert table_shards.result_tuples() == one.result_tuples()

    def test_service_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(num_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_workers=0)
        # The value-sharded index's fetch fan-out went with it, and the
        # posting-list cache's capacity with the cache.
        with pytest.raises(TypeError, match="fetch_workers"):
            ServiceConfig(fetch_workers=2)
        with pytest.raises(TypeError, match="cache_capacity"):
            ServiceConfig(cache_capacity=0)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_engine_answers_equal_mate(
        self, workload, service_config, monolithic_index, num_shards
    ):
        with DiscoverySession(
            workload.corpus,
            monolithic_index,
            config=service_config,
            service_config=ServiceConfig(num_shards=num_shards),
        ) as session:
            mate = session.discover_batch(requests_for(workload)).results
            over_shards = session.discover_batch(
                requests_for(workload, engine="sharded")
            ).results
        for one, table_shards in zip(mate, over_shards):
            assert [
                (table.table_id, table.joinability, tuple(table.column_mapping))
                for table in table_shards.tables
            ] == [
                (table.table_id, table.joinability, tuple(table.column_mapping))
                for table in one.tables
            ]

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 7])
    def test_each_table_shard_indexes_its_own_tables(
        self, workload, service_config, monolithic_index, num_shards
    ):
        """A table shard's index holds the monolith's postings and row keys
        of exactly its own tables, in the monolith's order."""
        sharded = ShardedMateDiscovery(
            workload.corpus, num_shards=num_shards, config=service_config
        )
        values = sorted(monolithic_index.values())[:200] + ["never indexed"]
        whole = fetch_items(monolithic_index, values)
        keys = row_keys(monolithic_index)
        vocabulary: set[str] = set()
        for shard, index in zip(sharded.shards, sharded.shard_indexes):
            tables = set(shard.table_ids())
            assert index.indexed_tables() == (
                monolithic_index.indexed_tables() & tables
            )
            assert fetch_items(index, values) == [
                item for item in whole if item.table_id in tables
            ]
            assert row_keys(index) == [key for key in keys if key[0] in tables]
            vocabulary.update(index.values())
        assert vocabulary == set(monolithic_index.values())
        assert sum(
            index.num_posting_items() for index in sharded.shard_indexes
        ) == monolithic_index.num_posting_items()
        assert sum(index.num_rows() for index in sharded.shard_indexes) == (
            monolithic_index.num_rows()
        )
