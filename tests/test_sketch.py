"""The approximate candidate tier: MinHash sketches, LSH index, integration.

Covers the :mod:`repro.sketch` subsystem end to end:

* signature determinism and the numpy/fallback kernel equivalence
  (``MATE_SKETCH``), Jaccard/containment estimator sanity;
* :class:`SketchIndex` mutation, banded-LSH lookup, threshold and
  ``max_candidates`` pruning, and the S-curve recall estimate;
* versioned persistence: atomic save/load round trips and corruption
  detection (missing files, bad magic, size mismatch, version drift);
* the discovery pipeline: planner mode ``"sketch"`` with ``threshold=0``
  is byte-identical to the exact engine, a real threshold prunes while
  keeping the full top-k on the skewed scenario corpus (measured recall);
* session plumbing: one cached engine serves every sketch threshold (the
  knobs stay out of the engine cache key), capability gating rejects
  engines without sketch support;
* live-index freshness: sketches survive seal + reopen and WAL crash
  recovery; pre-sketch directories degrade to a stale store that is never
  served or persisted;
* the similarity-join and union-search extensions behind the same store,
  and their CLI sub-commands.
"""

from __future__ import annotations

import json
import struct
from zlib import crc32

import pytest

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    SketchIndex,
    SketchIndexConfig,
    SketchOptions,
    build_index,
    build_sketch_index,
)
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.exceptions import ConfigurationError, DiscoveryError, StorageError
from repro.experiments import ExperimentSettings, build_sketch_scenario
from repro.extensions import SimilarityJoinDiscovery, UnionSearch
from repro.index import IndexBuilder
from repro.ingest import LiveIndex
from repro.plan import PlannerOptions
from repro.sketch import (
    DEFAULT_SKETCH_OPTIONS,
    active_sketch_kernel,
    containment_estimate,
    jaccard_estimate,
    minhash_signature,
    permutation_params,
    use_sketch_kernel,
)

from tests.helpers import available_sketch_kernel_modes, write_legacy_sketch_pair

CONFIG = MateConfig(hash_size=128, k=5, expected_unique_values=10_000)


def make_corpus() -> TableCorpus:
    corpus = TableCorpus(name="sketch_unit")
    corpus.add_table(
        Table(1, "cities", ["city", "country"],
              [["berlin", "de"], ["paris", "fr"], ["rome", "it"]])
    )
    corpus.add_table(
        Table(2, "people", ["name", "city"],
              [["ada", "london"], ["alan", "london"], ["grace", "nyc"]])
    )
    corpus.add_table(
        Table(3, "empty_ish", ["x"], [["only"]])
    )
    return corpus


class TestMinHash:
    def test_signature_is_deterministic_and_seeded(self):
        params = permutation_params(128, seed=1_000_003)
        first = minhash_signature(["a", "b", "c"], *params)
        second = minhash_signature(["c", "b", "a"], *params)
        assert first == second
        assert len(first) == 128
        other_seed = permutation_params(128, seed=42)
        assert minhash_signature(["a", "b", "c"], *other_seed) != first

    @pytest.mark.parametrize("kernel", available_sketch_kernel_modes())
    def test_kernels_are_bit_identical(self, kernel):
        params = permutation_params(64, seed=7)
        values = [f"value_{i}" for i in range(50)]
        with use_sketch_kernel("fallback"):
            reference = minhash_signature(values, *params)
        with use_sketch_kernel(kernel):
            assert active_sketch_kernel() == kernel
            assert minhash_signature(values, *params) == reference

    def test_jaccard_estimate_tracks_true_overlap(self):
        params = permutation_params(256, seed=11)
        base = [f"v{i}" for i in range(100)]
        half = base[:50] + [f"w{i}" for i in range(50)]
        same = minhash_signature(base, *params)
        other = minhash_signature(half, *params)
        assert jaccard_estimate(same, same) == 1.0
        estimate = jaccard_estimate(same, other)
        # True Jaccard is 50/150 = 1/3; 256 permutations keep the noise low.
        assert abs(estimate - 1 / 3) < 0.12

    def test_containment_estimate_of_subset_is_high(self):
        params = permutation_params(256, seed=11)
        big = [f"v{i}" for i in range(80)]
        small = big[:20]
        big_sig = minhash_signature(big, *params)
        small_sig = minhash_signature(small, *params)
        # |small ∩ big| / |small| = 1.0; the estimator sees Jaccard 0.25.
        jaccard = jaccard_estimate(small_sig, big_sig)
        estimate = containment_estimate(jaccard, len(small), len(big))
        assert estimate > 0.7

    def test_empty_values_yield_the_empty_signature(self):
        params = permutation_params(16, seed=3)
        signature = minhash_signature([], *params)
        assert len(signature) == 16


class TestSketchIndex:
    def test_add_query_remove_round_trip(self):
        index = SketchIndex()
        corpus = make_corpus()
        for table in corpus:
            assert index.add_table(table) > 0
        assert index.num_tables == 3
        scored = index.query(["berlin", "paris", "rome"])
        assert scored and scored[0][0] == 1
        assert scored[0][1] > 0.9
        assert index.remove_table(1)
        assert not index.remove_table(1)
        assert 1 not in {table_id for table_id, _ in
                         index.query(["berlin", "paris", "rome"])}

    def test_threshold_and_max_candidates_prune(self):
        index = SketchIndex()
        for table in make_corpus():
            index.add_table(table)
        everything = index.query(["berlin", "paris", "rome"], threshold=0.0)
        assert len(everything) >= 1
        tight = index.query(["berlin", "paris", "rome"], threshold=0.9)
        assert {table_id for table_id, _ in tight} == {1}
        capped = index.query(["berlin", "paris", "rome"], max_candidates=1)
        assert len(capped) == 1 and capped[0][0] == 1

    def test_estimated_recall_s_curve(self):
        config = SketchIndexConfig()
        assert config.estimated_recall(0.0) == 1.0
        assert config.estimated_recall(0.5) > 0.99
        assert config.estimated_recall(0.2) > config.estimated_recall(0.01) - 1.0
        assert 0.0 < config.estimated_recall(0.01) <= 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SketchIndexConfig(num_perm=128, bands=60, rows=2)
        with pytest.raises(ConfigurationError):
            SketchIndexConfig(num_perm=0, bands=0, rows=0)
        with pytest.raises(ConfigurationError):
            SketchOptions(threshold=1.5)
        with pytest.raises(ConfigurationError):
            SketchOptions(max_candidates=0)
        assert not DEFAULT_SKETCH_OPTIONS.enabled
        assert SketchOptions(threshold=0.1).enabled
        assert SketchOptions(max_candidates=3).enabled

    def test_build_sketch_index_and_builder_agree(self):
        corpus = make_corpus()
        built = build_sketch_index(corpus)
        builder = IndexBuilder(config=CONFIG)
        _inverted, from_builder = builder.build_with_sketches(corpus)
        assert built.table_ids() == from_builder.table_ids()
        probe = ["berlin", "paris", "rome"]
        assert built.query(probe) == from_builder.query(probe)


class TestPersistence:
    """The one-file ``.sk`` format, and the reader of the pair it replaced."""

    def test_save_load_round_trip(self, tmp_path):
        index = SketchIndex()
        for table in make_corpus():
            index.add_table(table)
        path = index.save(tmp_path)
        assert path == tmp_path / "sketches.sk" and path.exists()
        assert not list(tmp_path.glob("*.tmp"))
        probe = ["berlin", "paris", "ada"]
        write_legacy_sketch_pair(index, tmp_path)
        for loaded in (SketchIndex.load(tmp_path), SketchIndex.load_legacy(tmp_path)):
            assert loaded.config == index.config
            assert loaded.table_ids() == index.table_ids()
            assert loaded.query(probe) == index.query(probe)
            assert [
                (sketch.table_id, sketch.column_index, sketch.cardinality, sketch.packed)
                for sketch in loaded.column_sketches()
            ] == [
                (sketch.table_id, sketch.column_index, sketch.cardinality, sketch.packed)
                for sketch in index.column_sketches()
            ]
        # Saving is deterministic, whatever order the tables arrived in.
        again = SketchIndex()
        for table in reversed(list(make_corpus())):
            again.add_table(table)
        assert again.save(tmp_path, stem="again").read_bytes() == path.read_bytes()

    def test_a_subset_of_the_tables_is_saved_and_loaded(self, tmp_path):
        index = SketchIndex()
        tables = list(make_corpus())
        for table in tables:
            index.add_table(table)
        ids = [table.table_id for table in tables]
        index.save(tmp_path, stem="part", table_ids=ids[:2], fsync=False)
        assert SketchIndex.load(tmp_path, "part").table_ids() == set(ids[:2])
        # Files add up: each is read for the tables asked of it.
        index.save(tmp_path, stem="rest", table_ids=ids[1:], fsync=False)
        store = SketchIndex()
        store.load_file(tmp_path / "part.sk", {ids[0]})
        store.load_file(tmp_path / "rest.sk")
        assert store.table_ids() == set(ids)
        probe = ["berlin", "paris", "ada"]
        assert store.query(probe) == index.query(probe)
        with pytest.raises(StorageError, match="was written as"):
            SketchIndex(SketchIndexConfig(num_perm=64, bands=32, rows=2)).load_file(
                tmp_path / "part.sk"
            )

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(StorageError, match="no sketch file"):
            SketchIndex.load(tmp_path)
        with pytest.raises(StorageError, match="no sketch manifest"):
            SketchIndex.load_legacy(tmp_path)

    def test_corrupt_manifest_raises(self, tmp_path):
        (tmp_path / "sketches.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StorageError, match="corrupt sketch manifest"):
            SketchIndex.load_legacy(tmp_path)
        index = SketchIndex()
        index.add_table(Table(1, "t", ["a"], [["x"]]))
        data = bytearray(index.save(tmp_path).read_bytes())
        data[len(data) // 2] ^= 0x40  # one flipped bit inside a signature
        (tmp_path / "sketches.sk").write_bytes(bytes(data))
        with pytest.raises(StorageError, match="checksum"):
            SketchIndex.load(tmp_path)

    def test_version_drift_raises(self, tmp_path):
        index = SketchIndex()
        index.add_table(Table(1, "t", ["a"], [["x"]]))
        write_legacy_sketch_pair(index, tmp_path)
        manifest = json.loads(
            (tmp_path / "sketches.json").read_text(encoding="utf-8")
        )
        manifest["format_version"] = 999
        (tmp_path / "sketches.json").write_text(
            json.dumps(manifest), encoding="utf-8"
        )
        with pytest.raises(StorageError, match="format_version"):
            SketchIndex.load_legacy(tmp_path)
        # The one-file format: another version under a valid checksum.
        body = bytearray(index.save(tmp_path).read_bytes()[:-4])
        body[4:8] = struct.pack("=I", 999)
        (tmp_path / "sketches.sk").write_bytes(
            bytes(body) + struct.pack("=I", crc32(bytes(body)))
        )
        with pytest.raises(StorageError, match="magic/version"):
            SketchIndex.load(tmp_path)

    def test_truncated_data_file_raises(self, tmp_path):
        index = SketchIndex()
        index.add_table(Table(1, "t", ["a"], [["x"]]))
        write_legacy_sketch_pair(index, tmp_path)
        data = (tmp_path / "sketches.bin").read_bytes()
        (tmp_path / "sketches.bin").write_bytes(data[: len(data) // 2])
        with pytest.raises(StorageError):
            SketchIndex.load_legacy(tmp_path)
        data = index.save(tmp_path).read_bytes()
        for keep in (0, 10, len(data) // 2, len(data) - 1):
            (tmp_path / "sketches.sk").write_bytes(data[:keep])
            with pytest.raises(StorageError):
                SketchIndex.load(tmp_path)


def _strip_runtime(result) -> tuple:
    counters = result.counters.as_dict()
    counters.pop("runtime_seconds")
    counters.pop("stages", None)
    return (
        [(t.table_id, t.joinability, t.column_mapping, t.table_name)
         for t in result.tables],
        result.complete,
        counters,
    )


class TestDiscoveryIntegration:
    def setup_method(self):
        self.corpus, self.query = build_sketch_scenario(ExperimentSettings())

    def test_threshold_zero_is_byte_identical_to_exact(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            exact = session.discover(
                DiscoveryRequest(query=self.query, k=5)
            )
            sketch0 = session.discover(
                DiscoveryRequest(
                    query=self.query, k=5,
                    planner=PlannerOptions(mode="sketch"),
                    sketch=SketchOptions(threshold=0.0),
                )
            )
            assert _strip_runtime(sketch0.response) == _strip_runtime(
                exact.response
            )

    def test_threshold_prunes_with_full_recall(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            exact = session.discover(DiscoveryRequest(query=self.query, k=5))
            pruned = session.discover(
                DiscoveryRequest(
                    query=self.query, k=5,
                    planner=PlannerOptions(mode="sketch"),
                    sketch=SketchOptions(threshold=0.2),
                )
            )
            assert pruned.result_tuples() == exact.result_tuples()
            extra = pruned.counters.extra
            assert extra["sketch_candidates"] == 4.0
            assert 0.0 < extra["sketch_estimated_recall"] <= 1.0
            assert "sketch_candidates" not in exact.counters.extra

    def test_max_candidates_caps_the_universe(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            capped = session.discover(
                DiscoveryRequest(
                    query=self.query, k=5,
                    planner=PlannerOptions(mode="sketch"),
                    sketch=SketchOptions(max_candidates=2),
                )
            )
            assert capped.counters.extra["sketch_candidates"] <= 2.0
            # The two best-containment tables are the two top matches.
            assert [t for t, _ in capped.result_tuples()] == [203, 202]

    def test_sketch_options_stay_out_of_the_engine_cache_key(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            for threshold in (0.0, 0.1, 0.2):
                session.discover(
                    DiscoveryRequest(
                        query=self.query, k=5,
                        planner=PlannerOptions(mode="sketch"),
                        sketch=SketchOptions(threshold=threshold),
                    )
                )
            session.discover(DiscoveryRequest(query=self.query, k=5))
            # Every sketch threshold reused one cached engine; the exact
            # request shares it too (planner mode is not part of the key).
            assert len(session.cached_engines()) == 1

    def test_non_default_sketch_requires_sketch_mode(self):
        with pytest.raises(DiscoveryError, match="planner mode 'sketch'"):
            DiscoveryRequest(
                query=self.query, k=5, sketch=SketchOptions(threshold=0.3)
            )

    def test_unsupported_engine_is_rejected(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            with pytest.raises(DiscoveryError, match="sketch"):
                session.discover(
                    DiscoveryRequest(
                        query=self.query, k=5, engine="mcr",
                        planner=PlannerOptions(mode="sketch"),
                        sketch=SketchOptions(threshold=0.2),
                    )
                )

    def test_measured_recall_on_the_skewed_corpus(self):
        with DiscoverySession(self.corpus, config=CONFIG) as session:
            exact = session.discover(DiscoveryRequest(query=self.query, k=5))
            pruned = session.discover(
                DiscoveryRequest(
                    query=self.query, k=5,
                    planner=PlannerOptions(mode="sketch"),
                    sketch=SketchOptions(threshold=0.2),
                )
            )
        exact_ids = {t.table_id for t in exact.tables}
        pruned_ids = {t.table_id for t in pruned.tables}
        recall = len(exact_ids & pruned_ids) / len(exact_ids)
        assert recall >= 0.95


def sketch_files(directory) -> list[str]:
    """Names of the sketch files in a live directory, sorted."""
    return sorted(path.name for path in directory.glob("*.sk"))


class TestLiveIndexFreshness:
    def _table(self, table_id: int) -> Table:
        return Table(
            table_id, f"t{table_id}", ["a", "b"],
            [[f"k{table_id}_{i}", f"v{table_id}_{i}"] for i in range(4)],
        )

    def test_sketches_survive_seal_and_reopen(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        for table_id in range(4):
            live.add_table(self._table(table_id))
        live.seal()
        live.close()
        # One sketch file per segment, beside its postings.
        assert sketch_files(directory) == ["segment-000001.sk"]
        assert (directory / "segment-000001.seg").exists()

        reopened = LiveIndex.open(directory, config=CONFIG)
        store = reopened.sketch_index()
        assert store is not None
        assert store.table_ids() == {0, 1, 2, 3}
        reopened.close()

    def test_sketches_stay_fresh_after_wal_crash_recovery(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        live.add_table(self._table(0))
        live.seal()
        live.add_table(self._table(1))  # WAL only, never sealed
        # Simulated crash: no close(), no seal, torn in-flight record.
        with (directory / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op": "add_table", "seq": 99, "tab')

        recovered = LiveIndex.open(directory, config=CONFIG)
        store = recovered.sketch_index()
        assert store is not None
        # Table 1 was replayed from the WAL into the sketch store.
        assert store.table_ids() == {0, 1}
        recovered.close()

    def test_crash_after_a_merge_that_purged_a_tombstone(self, tmp_path):
        # A merge copies the surviving tables' sketches into the merged
        # segment's file and drops the inputs' with their postings; the
        # purged table is in neither.  The remove also sits in the WAL
        # behind the checkpoint, so replay applies it again (a no-op).
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        tables = {table_id: self._table(table_id) for table_id in range(5)}
        for table_id in (0, 1):
            live.add_table(tables[table_id])
        live.seal()
        for table_id in (2, 3):
            live.add_table(tables[table_id])
        live.seal()
        assert sketch_files(directory) == ["segment-000001.sk", "segment-000002.sk"]
        live.remove_table(1)
        assert live.tombstones
        assert live.merge(0, None) is not None
        assert live.tombstones == {}  # purged with the table's postings
        assert sketch_files(directory) == ["segment-000003.sk"]
        assert SketchIndex.load(directory, "segment-000003").table_ids() == {0, 2, 3}
        live.add_table(tables[4])  # WAL only
        # Crash: the process state is abandoned — no seal, no close().

        recovered = LiveIndex.open(directory, config=CONFIG)
        corpus = TableCorpus(
            name="survivors", tables=[tables[i] for i in (0, 2, 3, 4)]
        )
        index, fresh = IndexBuilder(config=CONFIG).build_with_sketches(corpus)
        store = recovered.sketch_index()
        assert store is not None
        assert store.table_ids() == fresh.table_ids() == {0, 2, 3, 4}
        query = QueryTable(
            table=Table(
                99, "q", ["a", "b"],
                [[f"k{t}_{i}", f"v{t}_{i}"] for t in (0, 1, 2, 4) for i in (0, 1)],
            ),
            key_columns=["a", "b"],
        )
        modes = [
            {},
            {
                "planner": PlannerOptions(mode="sketch"),
                "sketch": SketchOptions(threshold=0.1),
            },
        ]
        with DiscoverySession(corpus, recovered, config=CONFIG) as restarted:
            with DiscoverySession(corpus, index, config=CONFIG) as rebuilt:
                for mode in modes:
                    mine = restarted.discover(
                        DiscoveryRequest(query=query, k=5, engine="live", **mode)
                    )
                    theirs = rebuilt.discover(
                        DiscoveryRequest(query=query, k=5, engine="mate", **mode)
                    )
                    assert mine.result_tuples() == theirs.result_tuples()
                    assert {t for t, _ in mine.result_tuples()} == {0, 2, 4}
                    assert mine.counters.extra.get("sketch_candidates") == (
                        theirs.counters.extra.get("sketch_candidates")
                    )
        recovered.close()

    def test_pre_sketch_directory_degrades_to_stale(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        live.add_table(self._table(0))
        live.seal()
        live.close()
        (directory / "segment-000001.sk").unlink()

        reopened = LiveIndex.open(directory, config=CONFIG)
        # Sealed postings cannot be re-sketched: the store is stale and
        # never served (the session falls back to a corpus-built store).
        assert reopened.sketch_index() is None
        reopened.add_table(self._table(1))
        assert reopened.seal() is not None
        assert reopened.merge(0, None) is not None
        # ... nor written: a later reopen would take it for complete.
        assert sketch_files(directory) == []
        reopened.close()
        again = LiveIndex.open(directory, config=CONFIG)
        assert again.sketch_index() is None
        again.close()

    def test_session_falls_back_when_live_store_is_stale(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        corpus = TableCorpus(name="live_corpus")
        for table_id in range(3):
            table = self._table(table_id)
            corpus.add_table(table)
            live.add_table(table)
        live.seal()
        live.close()
        (directory / "segment-000001.sk").unlink()

        reopened = LiveIndex.open(directory, config=CONFIG)
        with DiscoverySession(corpus, reopened, config=CONFIG) as session:
            store = session.sketch_index()
            assert store is not None
            assert store.table_ids() == {0, 1, 2}
        reopened.close()

    def test_session_ingest_keeps_the_shared_store_fresh(self, tmp_path):
        directory = tmp_path / "live"
        live = LiveIndex.open(directory, config=CONFIG)
        corpus = TableCorpus(name="live_corpus")
        with DiscoverySession(corpus, live, config=CONFIG) as session:
            session.ingest(self._table(0))
            assert session.sketch_index().table_ids() == {0}
            session.ingest(self._table(1))
            assert session.sketch_index().table_ids() == {0, 1}
            session.remove(0)
            assert session.sketch_index().table_ids() == {1}
        live.close()


class TestExtensions:
    def setup_method(self):
        self.corpus, self.query = build_sketch_scenario(ExperimentSettings())
        self.index = build_index(self.corpus, config=CONFIG)
        self.store = build_sketch_index(self.corpus)

    def test_similarity_join_prunes_without_losing_the_topk(self):
        exhaustive = SimilarityJoinDiscovery(
            self.corpus, self.index, config=CONFIG
        ).discover(self.query, k=5)
        from repro.metrics import DiscoveryCounters

        counters = DiscoveryCounters()
        pruned = SimilarityJoinDiscovery(
            self.corpus, self.index, config=CONFIG,
            sketch_index=self.store,
            sketch_options=SketchOptions(threshold=0.2),
        ).discover(self.query, k=5, counters=counters)
        assert [(r.table_id, r.similarity_joinability) for r in pruned] == [
            (r.table_id, r.similarity_joinability) for r in exhaustive
        ]
        assert counters.extra["sketch_candidates"] <= 8.0

    def test_union_search_prunes_without_losing_the_topk(self):
        query_columns = ["a", "b"]
        exhaustive = UnionSearch(self.corpus, self.index).top_k_unionable(
            self.query.table, k=4, columns=query_columns
        )
        pruned = UnionSearch(
            self.corpus, self.index,
            sketch_index=self.store,
            sketch_options=SketchOptions(threshold=0.2),
        ).top_k_unionable(self.query.table, k=4, columns=query_columns)
        assert [(c.table_id, c.unionability) for c in pruned] == [
            (c.table_id, c.unionability) for c in exhaustive
        ]

    def test_disabled_options_mean_no_pruning(self):
        search = UnionSearch(
            self.corpus, self.index,
            sketch_index=self.store,
            sketch_options=SketchOptions(),
        )
        assert search._sketch_allowed_tables(self.query.table, ["a"]) is None


class TestCli:
    @pytest.fixture()
    def corpus_and_query_files(self, tmp_path):
        import csv

        from repro.storage import save_corpus_json

        corpus, query = build_sketch_scenario(ExperimentSettings())
        corpus_path = tmp_path / "corpus.json"
        save_corpus_json(corpus, corpus_path)
        query_path = tmp_path / "query.csv"
        with query_path.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(query.table.columns)
            writer.writerows(query.table.rows)
        return corpus_path, query_path

    def test_discover_with_sketch_flags(self, corpus_and_query_files, capsys):
        from repro.cli import main

        corpus_path, query_path = corpus_and_query_files
        assert main([
            "discover", str(corpus_path), str(query_path),
            "--key", "a", "b", "--k", "4", "--sketch-threshold", "0.2",
        ]) == 0
        output = capsys.readouterr().out
        assert "sketch: 4 candidate tables" in output
        assert "match_3" in output

    def test_discover_json_carries_the_sketch_knobs(
        self, corpus_and_query_files, capsys
    ):
        from repro.cli import main

        corpus_path, query_path = corpus_and_query_files
        assert main([
            "discover", str(corpus_path), str(query_path),
            "--key", "a", "b", "--sketch-threshold", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        request = payload["request"]
        assert request["sketch_threshold"] == 0.2
        assert request["planner_mode"] == "sketch"

    def test_similarity_subcommand(self, corpus_and_query_files, capsys):
        from repro.cli import main

        corpus_path, query_path = corpus_and_query_files
        assert main([
            "similarity", str(corpus_path), str(query_path),
            "--key", "a", "b", "--k", "4", "--sketch-threshold", "0.2",
        ]) == 0
        output = capsys.readouterr().out
        assert "similarity-joinable" in output
        assert "sketch: 4 candidate tables" in output

    def test_union_subcommand(self, corpus_and_query_files, capsys):
        from repro.cli import main

        corpus_path, query_path = corpus_and_query_files
        assert main([
            "union", str(corpus_path), str(query_path),
            "--columns", "a", "b", "--k", "4",
            "--sketch-threshold", "0.2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["table_id"] for entry in payload["tables"]] == [
            203, 202, 201, 200
        ]
