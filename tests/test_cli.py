"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.storage import load_corpus_json, table_to_csv


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])

    # ``--layout`` went with the per-item posting layout; ``--system`` was
    # the old spelling of ``--engine``.
    @pytest.mark.parametrize(
        "retired",
        [["--layout", "legacy"], ["--system", "scr"]],
        ids=["layout", "system"],
    )
    def test_retired_discover_options_rejected(self, retired, capsys):
        arguments = ["discover", "corpus.json", "query.csv", "--key", "a"]
        build_parser().parse_args(arguments)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*arguments, *retired])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(retired)}" in (
            capsys.readouterr().err
        )

    # A session serves one index: the value-shard count and its fetch
    # fan-out went with the value-sharded index.
    @pytest.mark.parametrize(
        "retired",
        [["--shards", "2"], ["--fetch-workers", "2"]],
        ids=["shards", "fetch-workers"],
    )
    def test_retired_serve_batch_options_rejected(self, retired, capsys):
        arguments = ["serve-batch", "corpus.json", "queries.json"]
        build_parser().parse_args(arguments)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([*arguments, *retired])
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {' '.join(retired)}" in (
            capsys.readouterr().err
        )

    def test_the_batch_service_experiment_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "batch_service"])


class TestGenerateAndIndex:
    def test_generate_writes_corpus_and_queries(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        exit_code = main([
            "generate", "WT_10", "--seed", "3", "--queries", "1",
            "--scale", "0.05", "--corpus-out", str(corpus_path),
            "--queries-out", str(queries_path),
        ])
        assert exit_code == 0
        assert corpus_path.exists() and queries_path.exists()
        corpus = load_corpus_json(corpus_path)
        assert len(corpus) > 0
        output = capsys.readouterr().out
        assert "wrote corpus" in output

    def test_index_builds_sqlite(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        database_path = tmp_path / "index.db"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path),
        ])
        exit_code = main([
            "index", str(corpus_path), "--database", str(database_path),
            "--hash-size", "128",
        ])
        assert exit_code == 0
        assert database_path.exists()
        assert "indexed" in capsys.readouterr().out


class TestDiscover:
    def test_end_to_end_discovery(self, tmp_path, capsys, running_example_corpus):
        query, corpus = running_example_corpus
        from repro.storage import save_corpus_json

        corpus_path = tmp_path / "corpus.json"
        save_corpus_json(corpus, corpus_path)
        query_csv = table_to_csv(query.table, tmp_path / "query.csv")

        exit_code = main([
            "discover", str(corpus_path), str(query_csv),
            "--key", "f_name", "l_name", "country", "--k", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "joinability=    5" in output or "joinability=5" in output.replace(" ", "")

    def test_discovery_with_prebuilt_index(self, tmp_path, capsys, running_example_corpus):
        query, corpus = running_example_corpus
        from repro.storage import save_corpus_json

        corpus_path = tmp_path / "corpus.json"
        database_path = tmp_path / "index.db"
        save_corpus_json(corpus, corpus_path)
        main(["index", str(corpus_path), "--database", str(database_path)])
        query_csv = table_to_csv(query.table, tmp_path / "query.csv")
        exit_code = main([
            "discover", str(corpus_path), str(query_csv),
            "--key", "f_name", "l_name", "country",
            "--database", str(database_path), "--engine", "scr",
        ])
        assert exit_code == 0
        assert "top-10" in capsys.readouterr().out


class TestExperimentCommand:
    def test_runs_small_experiment(self, capsys):
        exit_code = main([
            "experiment", "init_column", "--queries", "1", "--scale", "0.05",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "heuristic" in output
        assert "cardinality" in output

    def test_extension_experiments_are_registered(self):
        from repro.cli import EXPERIMENT_RUNNERS

        for name in ("scaling", "fetch_cost", "frequency_source", "sharding"):
            assert name in EXPERIMENT_RUNNERS

    def test_runs_sharding_experiment(self, capsys):
        exit_code = main([
            "experiment", "sharding", "--queries", "1", "--scale", "0.05",
        ])
        assert exit_code == 0
        assert "shards" in capsys.readouterr().out


class TestServeBatchCommand:
    def test_serve_batch_with_explicit_key(
        self, tmp_path, capsys, running_example_corpus
    ):
        from repro.datamodel import TableCorpus
        from repro.storage import save_corpus_json

        query, corpus = running_example_corpus
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        save_corpus_json(corpus, corpus_path)
        query_corpus = TableCorpus(name="queries")
        query_corpus.add_table(query.table)
        save_corpus_json(query_corpus, queries_path)

        exit_code = main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--key", "f_name", "l_name", "country",
            "--workers", "2", "--k", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "served 1 queries" in output
        assert "1:5" in output  # table T1 with joinability 5 (Figure 1)
        assert "cache:" in output

    def test_serve_batch_persists_and_reloads_the_index(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        database_path = tmp_path / "service.db"
        main([
            "generate", "WT_10", "--queries", "2", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        first = main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--database", str(database_path), "--k", "3",
        ])
        assert first == 0
        first_output = capsys.readouterr().out
        # Second invocation loads the index back from SQLite and must serve
        # the same results.
        second = main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--database", str(database_path), "--k", "3",
        ])
        assert second == 0
        second_output = capsys.readouterr().out
        first_ranked = [l for l in first_output.splitlines() if "top-3" in l]
        second_ranked = [l for l in second_output.splitlines() if "top-3" in l]
        assert first_ranked == second_ranked
        from repro.storage import SQLiteBackend

        with SQLiteBackend(database_path) as backend:
            assert backend.list_indexes() == ["main"]

    def test_serve_batch_stored_layout_overrides_flags(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        database_path = tmp_path / "service.db"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--hash-size", "64",
            "--database", str(database_path), "--k", "2",
        ])
        capsys.readouterr()
        # A conflicting flag on reload: the stored 64-bit index wins (a
        # 128-bit engine over 64-bit stored super keys would silently filter
        # out real matches).
        exit_code = main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--hash-size", "128",
            "--database", str(database_path), "--k", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "using stored index layout" in output
        assert "64-bit xash (ignoring --hash-size)" in output
        assert "served 1 queries" in output

    def test_serve_batch_refuses_the_value_sharded_layout(self, tmp_path):
        """Older releases saved ``main`` as ``main.shard{i}of{n}`` records;
        such a file is refused by name and nothing is built beside them."""
        from repro import build_index
        from repro.exceptions import StorageError
        from repro.storage import SQLiteBackend

        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        database_path = tmp_path / "service.db"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        index = build_index(load_corpus_json(corpus_path))
        records = ["main.shard0of2", "main.shard1of2"]
        with SQLiteBackend(database_path) as backend:
            for name in records:
                backend.save_index(name, index)
        with pytest.raises(StorageError) as raised:
            main([
                "serve-batch", str(corpus_path), str(queries_path),
                "--database", str(database_path),
            ])
        message = str(raised.value)
        assert "'main.shard0of2'" in message
        assert "rebuild" in message
        with SQLiteBackend(database_path) as backend:
            assert backend.list_indexes() == records


class TestProfileCommand:
    def test_profile_directory(self, tmp_path, capsys, running_example_corpus):
        _, corpus = running_example_corpus
        for table in corpus:
            table_to_csv(table, tmp_path / f"{table.name}.csv")
        exit_code = main(["profile", str(tmp_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "profile of" in output
        assert "recommended configuration" in output
        assert "hash_size" in output

    def test_profile_corpus_json(self, tmp_path, capsys, running_example_corpus):
        from repro.storage import save_corpus_json

        _, corpus = running_example_corpus
        corpus_path = tmp_path / "corpus.json"
        save_corpus_json(corpus, corpus_path)
        exit_code = main(["profile", str(corpus_path)])
        assert exit_code == 0
        assert "unique_values" in capsys.readouterr().out


class TestSuggestKeyCommand:
    def test_suggest_key_for_csv(self, tmp_path, capsys, running_example_corpus):
        query, _ = running_example_corpus
        query_csv = table_to_csv(query.table, tmp_path / "query.csv")
        exit_code = main(["suggest-key", str(query_csv), "--max-arity", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "composite-key candidates" in output

    def test_suggest_key_without_candidates(self, tmp_path, capsys):
        csv_path = tmp_path / "floats.csv"
        csv_path.write_text("m1,m2\n1.5,2.5\n3.5,4.5\n", encoding="utf-8")
        exit_code = main(["suggest-key", str(csv_path)])
        assert exit_code == 1
        assert "no composite-key candidate" in capsys.readouterr().out


class TestIngest:
    def test_ingest_persists_resumes_and_compacts(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        live_dir = tmp_path / "live"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path),
        ])
        capsys.readouterr()

        exit_code = main([
            "ingest", str(corpus_path), "--live-dir", str(live_dir),
            "--buffer-rows", "20", "--max-segments", "2", "--no-fsync",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "ingested" in output and "segments" in output
        assert (live_dir / "manifest.json").exists()
        assert (live_dir / "corpus.json").exists()

        # Re-running against the same directory resumes: everything is
        # already live, nothing is ingested twice.
        exit_code = main([
            "ingest", str(corpus_path), "--live-dir", str(live_dir),
            "--no-fsync", "--compact",
        ])
        assert exit_code == 0
        assert "ingested 0 tables" in capsys.readouterr().out

        from repro import LiveIndex, MateConfig

        live = LiveIndex.open(live_dir, config=MateConfig(hash_size=128))
        source = load_corpus_json(corpus_path)
        assert live.indexed_tables() == {t.table_id for t in source}
        assert live.num_segments == 1  # --compact collapsed the stack
