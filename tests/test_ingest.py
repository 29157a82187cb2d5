"""Tests for the online ingestion subsystem (repro.ingest).

Covers the WAL (append / replay / torn-tail tolerance), the delta buffer,
tombstones and segment merging, snapshot isolation, crash recovery of a
persisted live index, the session front door (``ingest`` / ``remove`` /
``engine="live"``), and the subsystem's central contract: after *any*
interleaving of add / remove / seal / merge operations, a live index is
byte-identical — fetch output and top-k results — to a bulk-built index
over the surviving tables (verified both with seeded-random schedules and a
hypothesis property test).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    CompactionPolicy,
    Compactor,
    DiscoveryRequest,
    DiscoverySession,
    IndexClosedError,
    LiveIndex,
    MateConfig,
    ServiceConfig,
    Table,
    TableCorpus,
    build_index,
)
from repro.datamodel import QueryTable
from repro.exceptions import DiscoveryError, IndexError_, StorageError
from repro.ingest import IngestBuffer, WriteAheadLog, replay_wal

from tests.helpers import assert_blocks_equal

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=100_000)

COLUMNS = ["name", "city", "team"]


def make_table(table_id: int, rng: random.Random, num_rows: int | None = None) -> Table:
    """A small random table over a narrow vocabulary (heavy value overlap)."""
    num_rows = num_rows or rng.randint(2, 6)
    rows = [
        [f"n{rng.randint(0, 12)}", f"c{rng.randint(0, 12)}", f"t{rng.randint(0, 12)}"]
        for _ in range(num_rows)
    ]
    return Table(table_id=table_id, name=f"table-{table_id}", columns=COLUMNS, rows=rows)


def make_query(rng: random.Random) -> QueryTable:
    table = Table(
        table_id=9_999_999,
        name="query",
        columns=["name", "city", "payload"],
        rows=[
            [f"n{rng.randint(0, 12)}", f"c{rng.randint(0, 12)}", f"p{i}"]
            for i in range(6)
        ],
    )
    return QueryTable(table=table, key_columns=["name", "city"])


def reference_index(live: LiveIndex, tables: dict[int, Table]):
    """Bulk-build the equivalence baseline: surviving tables in ingest order."""
    order = sorted(live.table_sequences().items(), key=lambda kv: kv[1])
    corpus = TableCorpus(name="reference", tables=[tables[tid] for tid, _ in order])
    return corpus, build_index(corpus, config=CONFIG)


ALL_PROBES = (
    [f"n{i}" for i in range(13)]
    + [f"c{i}" for i in range(13)]
    + [f"t{i}" for i in range(13)]
    + ["absent-value"]
)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_append_replay_round_trip(self, tmp_path):
        rng = random.Random(1)
        table = make_table(7, rng)
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append_add_table(1, table)
        wal.append_remove_table(2, 7)
        wal.close()

        records = list(replay_wal(tmp_path / "wal.jsonl"))
        assert [record.op for record in records] == ["add_table", "remove_table"]
        assert records[0].seq == 1 and records[1].seq == 2
        assert records[0].table.table_id == 7
        assert records[0].table.rows == table.rows
        assert records[1].table_id == 7

    def test_missing_file_replays_empty(self, tmp_path):
        assert list(replay_wal(tmp_path / "nope.jsonl")) == []

    def test_torn_final_record_is_skipped(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append_add_table(1, make_table(0, random.Random(2)))
        wal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"op": "add_table", "seq": 2, "table": {"tab')
        records = list(replay_wal(path))
        assert len(records) == 1 and records[0].seq == 1

    def test_corruption_before_the_tail_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append_remove_table(5, 3)
        wal.close()
        text = '{"op": "bogus"}\n' + path.read_text(encoding="utf-8")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(StorageError):
            list(replay_wal(path))

    def test_truncate_drops_records(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append_remove_table(1, 1)
        wal.truncate()
        wal.append_remove_table(2, 2)
        wal.close()
        records = list(replay_wal(path))
        assert [record.seq for record in records] == [2]


# ----------------------------------------------------------------------
# Delta buffer
# ----------------------------------------------------------------------
class TestIngestBuffer:
    def test_add_and_drop(self):
        rng = random.Random(3)
        buffer = IngestBuffer(config=CONFIG)
        table = make_table(1, rng, num_rows=4)
        assert buffer.add_table(table, seq=1) == 4
        assert 1 in buffer and len(buffer) == 1
        assert buffer.num_rows() == 4
        assert buffer.drop_table(1) > 0
        assert buffer.drop_table(1) == 0  # idempotent
        assert len(buffer) == 0 and buffer.num_posting_items() == 0

    def test_super_keys_match_bulk_build(self):
        rng = random.Random(4)
        table = make_table(2, rng)
        buffer = IngestBuffer(config=CONFIG)
        buffer.add_table(table, seq=1)
        bulk = build_index(TableCorpus(tables=[table]), config=CONFIG)
        for row_index in range(table.num_rows):
            assert buffer.index.super_key(2, row_index) == bulk.super_key(2, row_index)

    def test_seal_freezes_the_buffer(self):
        rng = random.Random(5)
        buffer = IngestBuffer(config=CONFIG)
        buffer.add_table(make_table(1, rng), seq=1)
        sealed = buffer.seal()
        assert buffer.sealed
        assert sealed.num_posting_items() > 0  # still readable
        with pytest.raises(IndexClosedError):
            buffer.add_table(make_table(2, rng), seq=2)
        with pytest.raises(IndexClosedError):
            buffer.drop_table(1)


# ----------------------------------------------------------------------
# Live index semantics
# ----------------------------------------------------------------------
class TestLiveIndex:
    def run_schedule(self, seed: int) -> tuple[LiveIndex, dict[int, Table]]:
        """A randomized add/remove/re-add/seal/merge schedule."""
        rng = random.Random(seed)
        live = LiveIndex(config=CONFIG)
        tables: dict[int, Table] = {}
        next_id = 0
        for _ in range(rng.randint(15, 35)):
            move = rng.random()
            if move < 0.55 or not tables:
                table = make_table(next_id, rng)
                tables[table.table_id] = table
                live.add_table(table)
                next_id += 1
            elif move < 0.72:
                victim = rng.choice(sorted(tables))
                live.remove_table(victim)
                del tables[victim]
            elif move < 0.82 and not live.has_table(0) and 0 not in tables:
                table = make_table(0, rng)  # re-add a previously removed id
                tables[0] = table
                live.add_table(table)
            elif move < 0.92:
                live.seal()
            else:
                live.seal()
                live.merge(0, None)
        return live, tables

    @pytest.mark.parametrize("seed", [11, 23, 47, 91])
    def test_fetch_equivalence_after_random_schedule(self, seed):
        live, tables = self.run_schedule(seed)
        _corpus, bulk = reference_index(live, tables)
        assert live.fetch(ALL_PROBES) == bulk.fetch(ALL_PROBES)
        assert live.fetch_batch(ALL_PROBES) == bulk.fetch_batch(ALL_PROBES)
        assert live.num_posting_items() == bulk.num_posting_items()
        assert live.num_rows() == bulk.num_rows()
        assert live.indexed_tables() == bulk.indexed_tables()
        assert live.posting_count_for_values(ALL_PROBES) == (
            bulk.posting_count_for_values(ALL_PROBES)
        )

    @pytest.mark.parametrize("seed", [11, 47])
    def test_equivalence_survives_full_compaction(self, seed):
        live, tables = self.run_schedule(seed)
        _corpus, bulk = reference_index(live, tables)
        before = live.fetch(ALL_PROBES)
        assert live.compact() <= 1
        assert live.fetch(ALL_PROBES) == before == bulk.fetch(ALL_PROBES)

    def test_duplicate_add_is_refused(self):
        rng = random.Random(6)
        live = LiveIndex(config=CONFIG)
        live.add_table(make_table(1, rng))
        with pytest.raises(IndexError_):
            live.add_table(make_table(1, rng))

    def test_remove_and_readd_across_segments(self):
        rng = random.Random(7)
        live = LiveIndex(config=CONFIG)
        first = make_table(1, rng)
        live.add_table(first)
        live.seal()  # the copy now lives in an immutable segment
        assert live.remove_table(1) == 0  # masked, not physically dropped
        assert not live.has_table(1)
        assert live.indexed_tables() == set()
        assert live.fetch(ALL_PROBES) == []

        replacement = make_table(1, rng)
        live.add_table(replacement)
        assert live.has_table(1)
        _corpus, bulk = reference_index(live, {1: replacement})
        assert live.fetch(ALL_PROBES) == bulk.fetch(ALL_PROBES)

    def test_merge_purges_tombstones(self):
        rng = random.Random(8)
        live = LiveIndex(config=CONFIG)
        for table_id in range(4):
            live.add_table(make_table(table_id, rng))
            live.seal()
        live.remove_table(2)
        assert live.tombstones == {2: live.sequence}
        live.compact()
        assert live.tombstones == {}
        assert live.num_segments == 1
        assert live.indexed_tables() == {0, 1, 3}

    def test_snapshot_isolation_across_compaction(self):
        rng = random.Random(9)
        live = LiveIndex(config=CONFIG)
        tables = {}
        for table_id in range(6):
            table = make_table(table_id, rng)
            tables[table_id] = table
            live.add_table(table)
            if table_id % 2 == 0:
                live.seal()
        # The buffer is non-empty (table 5) when the snapshot pins it.
        snapshot = live.snapshot()
        pinned = snapshot.fetch(ALL_PROBES)
        pinned_generation = snapshot.generation

        # Compaction, removal, and new sealed data land after the pin...
        live.remove_table(1)
        live.compact()
        live.add_table(make_table(50, rng))
        live.seal()

        # ...and the pinned snapshot still answers from its generation.
        assert snapshot.generation == pinned_generation
        assert snapshot.fetch(ALL_PROBES) == pinned
        assert snapshot.indexed_tables() == set(tables)
        # The live view has moved on.
        assert live.indexed_tables() == (set(tables) - {1}) | {50}

    def test_closed_live_index_refuses_writes_but_reads(self):
        rng = random.Random(10)
        live = LiveIndex(config=CONFIG)
        live.add_table(make_table(1, rng))
        live.close()
        with pytest.raises(IndexClosedError):
            live.add_table(make_table(2, rng))
        with pytest.raises(IndexClosedError):
            live.remove_table(1)
        with pytest.raises(IndexClosedError):
            live.seal()
        assert live.has_table(1)
        assert live.fetch(ALL_PROBES) != []

    def test_compactor_policy_bounds_buffer_and_stack(self):
        rng = random.Random(12)
        live = LiveIndex(config=CONFIG)
        compactor = Compactor(
            live, CompactionPolicy(max_buffer_rows=5, max_segments=2)
        )
        tables = {}
        for table_id in range(12):
            table = make_table(table_id, rng, num_rows=4)
            tables[table_id] = table
            live.add_table(table)
            compactor.run_once()
        assert live.buffer_rows < 5 + 4  # at most one table over budget
        assert live.num_segments <= 2
        assert compactor.seals > 0 and compactor.merges > 0
        _corpus, bulk = reference_index(live, tables)
        assert live.fetch(ALL_PROBES) == bulk.fetch(ALL_PROBES)

    def test_background_compactor_thread(self):
        rng = random.Random(13)
        live = LiveIndex(config=CONFIG)
        policy = CompactionPolicy(
            max_buffer_rows=5, max_segments=2, interval_seconds=0.01
        )
        tables = {}
        with Compactor(live, policy):
            for table_id in range(20):
                table = make_table(table_id, rng, num_rows=4)
                tables[table_id] = table
                live.add_table(table)
        _corpus, bulk = reference_index(live, tables)
        assert live.fetch(ALL_PROBES) == bulk.fetch(ALL_PROBES)


# ----------------------------------------------------------------------
# Persistence and crash recovery
# ----------------------------------------------------------------------
class TestPersistence:
    def test_reopen_restores_exact_state(self, tmp_path):
        rng = random.Random(14)
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        tables = {}
        for table_id in range(8):
            table = make_table(table_id, rng)
            tables[table_id] = table
            live.add_table(table)
            if table_id % 3 == 2:
                live.seal()
        live.remove_table(4)
        del tables[4]
        fetched = live.fetch(ALL_PROBES)
        live.close()

        reopened = LiveIndex.open(directory, config=CONFIG)
        assert reopened.fetch(ALL_PROBES) == fetched
        assert reopened.indexed_tables() == set(tables)
        assert reopened.sequence == live.sequence
        # Operations after the last seal were replayed from the WAL: tables
        # 6 and 7 were never sealed into a segment.
        recovered = {table.table_id for table in reopened.recovered_tables()}
        assert recovered == {6, 7}
        assert recovered <= set(tables)

    def test_wal_replay_after_simulated_crash(self, tmp_path):
        rng = random.Random(15)
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        sealed_table = make_table(0, rng)
        live.add_table(sealed_table)
        live.seal()
        unsealed = make_table(1, rng)
        live.add_table(unsealed)
        live.remove_table(0)
        pre_crash = live.fetch(ALL_PROBES)
        expected_tables = live.indexed_tables()
        # Simulated crash: no close(), no seal — and a torn in-flight record.
        with (directory / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op": "add_table", "seq": 99, "tab')

        recovered = LiveIndex.open(directory, config=CONFIG)
        assert recovered.fetch(ALL_PROBES) == pre_crash
        assert recovered.indexed_tables() == expected_tables == {1}
        assert [t.table_id for t in recovered.recovered_tables()] == [1]
        # The recovered index keeps accepting (durable) writes.
        follow_up = make_table(2, rng)
        recovered.add_table(follow_up)
        assert recovered.has_table(2)

    def test_writes_after_torn_tail_recovery_survive_the_next_restart(
        self, tmp_path
    ):
        """Recovery truncates a torn WAL tail; an acknowledged write made
        after the resume must not merge into the torn line and vanish (or
        corrupt the log) at the second restart."""
        rng = random.Random(22)
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        live.add_table(make_table(0, rng))
        # Crash with an in-flight record (no trailing newline).
        with (directory / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op": "add_table", "seq": 2, "tab')

        resumed = LiveIndex.open(directory, config=CONFIG)
        resumed.add_table(make_table(1, rng))  # acknowledged post-crash
        assert resumed.indexed_tables() == {0, 1}
        # Second abrupt restart: both acknowledged tables must survive.
        restarted = LiveIndex.open(directory, config=CONFIG)
        assert restarted.indexed_tables() == {0, 1}

    def test_merge_does_not_checkpoint_buffered_writes(self, tmp_path):
        """A mid-stream merge rewrites the manifest; acknowledged writes
        that only live in the WAL + buffer must survive a crash after it."""
        rng = random.Random(21)
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        for table_id in range(3):
            live.add_table(make_table(table_id, rng))
            live.seal()
        live.add_table(make_table(10, rng))  # WAL + buffer only
        live.remove_table(0)  # tombstone, WAL only (no seal follows)
        assert live.merge(0, 2) is not None  # manifest rewritten mid-stream
        expected = live.indexed_tables()
        # Crash: no close(), no seal.
        recovered = LiveIndex.open(directory, config=CONFIG)
        assert recovered.has_table(10)
        assert not recovered.has_table(0)
        assert recovered.indexed_tables() == expected == {1, 2, 10}
        assert {t.table_id for t in recovered.recovered_tables()} == {10}

    def test_config_mismatch_is_refused(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        live.close()
        with pytest.raises(StorageError):
            LiveIndex.open(directory, config=CONFIG.with_hash_size(256))


# ----------------------------------------------------------------------
# Session front door and the "live" engine
# ----------------------------------------------------------------------
class TestSessionIngestion:
    def build_live_session(self) -> tuple[DiscoverySession, LiveIndex]:
        live = LiveIndex(config=CONFIG)
        session = DiscoverySession(
            TableCorpus(name="live-corpus"), live, config=CONFIG
        )
        return session, live

    def test_ingest_remove_and_live_engine_match_bulk(self):
        rng = random.Random(16)
        session, live = self.build_live_session()
        tables = {}
        with session:
            for table_id in range(10):
                table = make_table(table_id, rng, num_rows=5)
                tables[table_id] = table
                assert session.ingest(table) == 5
                if table_id % 4 == 3:
                    live.seal()
            session.remove(3)
            del tables[3]

            reference_corpus, bulk = reference_index(live, tables)
            with DiscoverySession(
                reference_corpus, bulk, config=CONFIG
            ) as bulk_session:
                query = make_query(rng)
                live_result = session.discover(
                    DiscoveryRequest(query=query, engine="live")
                )
                bulk_result = bulk_session.discover(
                    DiscoveryRequest(query=query, engine="mate")
                )
                assert live_result.result_tuples() == bulk_result.result_tuples()

    def test_ingested_tables_are_immediately_discoverable(self):
        rng = random.Random(17)
        session, live = self.build_live_session()
        with session:
            query = make_query(rng)
            request = DiscoveryRequest(query=query, engine="live")
            assert session.discover(request).result_tuples() == []
            # Ingest a perfectly joinable table: the query's own key columns.
            joinable = Table(
                table_id=0,
                name="joinable",
                columns=["name", "city"],
                rows=[[row[0], row[1]] for row in query.table.rows],
            )
            session.ingest(joinable)
            assert session.discover(request).result_tuples() == [
                (0, len(query.key_tuples()))
            ]
            session.remove(0)
            assert session.discover(request).result_tuples() == []

    def test_cache_is_invalidated_on_ingest(self):
        rng = random.Random(18)
        live = LiveIndex(config=CONFIG)
        session = DiscoverySession(
            TableCorpus(name="cached"),
            live,
            config=CONFIG,
            service_config=ServiceConfig(cache_capacity=64),
        )
        with session:
            query = make_query(rng)
            request = DiscoveryRequest(query=query, engine="live")
            session.discover(request)  # warms the cache with empty blocks
            joinable = Table(
                table_id=0,
                name="late-arrival",
                columns=["name", "city"],
                rows=[[row[0], row[1]] for row in query.table.rows],
            )
            session.ingest(joinable)
            assert session.discover(request).result_tuples() == [
                (0, len(query.key_tuples()))
            ]

    def test_re_ingesting_a_removed_id_replaces_the_corpus_entry(self):
        rng = random.Random(19)
        session, _live = self.build_live_session()
        with session:
            session.ingest(make_table(1, rng))
            with pytest.raises(IndexError_):
                session.ingest(make_table(1, rng))
            session.remove(1)
            replacement = make_table(1, rng)
            session.ingest(replacement)
            assert session.corpus.get_table(1) is replacement

    def test_static_session_refuses_ingestion_and_live_engine(self):
        rng = random.Random(20)
        corpus = TableCorpus(name="static", tables=[make_table(0, rng)])
        with DiscoverySession(corpus, config=CONFIG) as session:
            with pytest.raises(DiscoveryError):
                session.ingest(make_table(1, rng))
            # remove() must not fall through to the static index's
            # (maintenance-layer, destructive) remove_table.
            with pytest.raises(DiscoveryError):
                session.remove(0)
            assert session.base_index.indexed_tables() == {0}
            with pytest.raises(DiscoveryError):
                session.discover(
                    DiscoveryRequest(query=make_query(rng), engine="live")
                )


# ----------------------------------------------------------------------
# Property-based round trip (the ISSUE's equivalence criterion)
# ----------------------------------------------------------------------
OPS = st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=30)


class TestPropertyEquivalence:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=2**20))
    def test_any_interleaving_matches_bulk_rebuild(self, ops, seed):
        """LiveIndex after any add/remove/compact interleaving == bulk build."""
        rng = random.Random(seed)
        live = LiveIndex(config=CONFIG)
        tables: dict[int, Table] = {}
        next_id = 0
        for op in ops:
            if op <= 4:  # add a fresh table
                table = make_table(next_id, rng)
                tables[next_id] = table
                live.add_table(table)
                next_id += 1
            elif op <= 6 and tables:  # remove (possibly re-add later)
                victim = rng.choice(sorted(tables))
                live.remove_table(victim)
                del tables[victim]
            elif op == 7:
                live.seal()
            elif op == 8:
                live.seal()
                live.merge(0, None)
            elif op == 9:
                live.compact()

        _corpus, bulk = reference_index(live, tables)
        assert live.fetch(ALL_PROBES) == bulk.fetch(ALL_PROBES)
        assert live.indexed_tables() == bulk.indexed_tables()
        assert live.num_posting_items() == bulk.num_posting_items()
        # Block for block too: the stable merge order is the rebuild order,
        # and the packed key columns survive seals, merges and masking.
        assert_blocks_equal(
            live.fetch_batch(ALL_PROBES), bulk.fetch_batch(ALL_PROBES)
        )
        # Segment sizes are read off the offsets, not summed over values.
        for segment, size in zip(live._segments, live.segment_sizes()):
            assert size == sum(
                len(segment.index.posting_list(value))
                for value in segment.index.values()
            )

    @settings(max_examples=10, deadline=None)
    @given(ops=OPS, seed=st.integers(min_value=0, max_value=2**20))
    def test_topk_matches_bulk_rebuild(self, ops, seed):
        """engine="live" top-k == bulk-built index top-k, any interleaving."""
        rng = random.Random(seed)
        live = LiveIndex(config=CONFIG)
        session = DiscoverySession(TableCorpus(name="prop"), live, config=CONFIG)
        tables: dict[int, Table] = {}
        next_id = 0
        with session:
            for op in ops:
                if op <= 4:
                    table = make_table(next_id, rng)
                    tables[next_id] = table
                    session.ingest(table)
                    next_id += 1
                elif op <= 6 and tables:
                    victim = rng.choice(sorted(tables))
                    session.remove(victim)
                    del tables[victim]
                elif op == 7:
                    live.seal()
                else:
                    live.compact()

            reference_corpus, bulk = reference_index(live, tables)
            query = make_query(rng)
            live_result = session.discover(
                DiscoveryRequest(query=query, engine="live")
            )
            with DiscoverySession(
                reference_corpus, bulk, config=CONFIG
            ) as bulk_session:
                bulk_result = bulk_session.discover(
                    DiscoveryRequest(query=query, engine="mate")
                )
            assert live_result.result_tuples() == bulk_result.result_tuples()
