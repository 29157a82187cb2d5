"""Tests for the command-line interface."""

import pytest

from repro.api import available_engines
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
    # the old spelling of ``--engine``; ``--database`` named the SQLite
    # index file (``--live-dir`` names the one persisted format).
    @pytest.mark.parametrize(
        "retired",
        [["--layout", "legacy"], ["--system", "scr"], ["--database", "x.db"]],
        ids=["layout", "system", "database"],
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
    # fan-out went with the value-sharded index, ``--database`` with the
    # SQLite index file.
    @pytest.mark.parametrize(
        "retired",
        [["--shards", "2"], ["--fetch-workers", "2"], ["--database", "x.db"]],
        ids=["shards", "fetch-workers", "database"],
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

    def test_index_takes_a_live_directory_not_a_database(self, capsys):
        build_parser().parse_args(["index", "corpus.json", "--live-dir", "d"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index", "corpus.json", "--database", "x.db"])

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

    def test_index_writes_a_live_directory(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        live_dir = tmp_path / "lake"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path),
        ])
        exit_code = main([
            "index", str(corpus_path), "--live-dir", str(live_dir),
            "--hash-size", "128",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "live index (xash/128)" in output and "1 segments" in output
        assert {path.name for path in live_dir.iterdir()} >= {
            "manifest.json", "segment-000001.seg", "corpus.json",
        }
        # Sketches are signed by the first sketch-mode read, never written.
        assert not list(live_dir.glob("*.sk"))

    def test_index_is_ingest_compact(self, tmp_path, capsys):
        """``index`` runs what ``ingest --compact`` runs, with the buffer
        sealed once at the end: the same directory as ``ingest --compact``
        given a buffer that never fills, and the same segment bytes (under
        a later generation's name) as ``ingest --compact`` by default."""
        corpus_path = tmp_path / "corpus.json"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path),
        ])
        main(["index", str(corpus_path), "--live-dir", str(tmp_path / "a")])
        main([
            "ingest", str(corpus_path), "--live-dir", str(tmp_path / "b"),
            "--compact", "--buffer-rows", "1000000000",
        ])
        main([
            "ingest", str(corpus_path), "--live-dir", str(tmp_path / "c"),
            "--compact", "--buffer-rows", "100",
        ])
        capsys.readouterr()
        names = sorted(path.name for path in (tmp_path / "a").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name
        (built,) = (tmp_path / "a").glob("*.seg")
        (streamed,) = (tmp_path / "c").glob("*.seg")
        assert built.name != streamed.name
        assert built.read_bytes() == streamed.read_bytes()

    def test_index_refuses_a_directory_that_is_not_empty(self, tmp_path, capsys):
        """Rerunning ``index`` over an edited corpus must not leave the old
        postings served: a directory already holding anything is refused
        and left as it was."""
        from repro.exceptions import StorageError
        from repro.storage import save_corpus_json

        corpus_path = tmp_path / "corpus.json"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path),
        ])
        live_dir = tmp_path / "lake"
        main(["index", str(corpus_path), "--live-dir", str(live_dir)])
        before = {path.name: path.read_bytes() for path in live_dir.iterdir()}
        edited = load_corpus_json(corpus_path)
        table = next(iter(edited))
        table.rows[0] = tuple("edited" for _ in table.columns)
        edited_path = save_corpus_json(edited, tmp_path / "edited.json")
        with pytest.raises(StorageError) as raised:
            main(["index", str(edited_path), "--live-dir", str(live_dir)])
        message = str(raised.value)
        assert str(live_dir) in message
        assert "already holds a live index (manifest.json)" in message
        assert "fresh or empty directory" in message
        assert {path.name: path.read_bytes() for path in live_dir.iterdir()} == before

        cluttered = tmp_path / "cluttered"
        cluttered.mkdir()
        (cluttered / "notes.tmp").write_text("keep me")
        with pytest.raises(StorageError, match="is not empty"):
            main(["index", str(corpus_path), "--live-dir", str(cluttered)])
        assert [path.name for path in cluttered.iterdir()] == ["notes.tmp"]

        empty = tmp_path / "empty"
        empty.mkdir()
        capsys.readouterr()
        assert main(["index", str(edited_path), "--live-dir", str(empty)]) == 0
        assert "ingested" in capsys.readouterr().out


def _generated_query(tmp_path):
    """A generated corpus file and its first query table as a CSV file,
    with the query's key (the generator stores key columns first)."""
    corpus_path = tmp_path / "corpus.json"
    queries_path = tmp_path / "queries.json"
    main([
        "generate", "WT_10", "--seed", "5", "--queries", "1", "--scale", "0.1",
        "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
    ])
    (query_table,) = load_corpus_json(queries_path)
    query_csv = table_to_csv(query_table, tmp_path / "query.csv")
    return corpus_path, query_csv, query_table.columns[:2]


def _ranked(output: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith("  table ")]


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

    @pytest.fixture(scope="class")
    def indexed(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("indexed")
        corpus_path, query_csv, key = _generated_query(tmp_path)
        live_dir = tmp_path / "lake"
        assert main(["index", str(corpus_path), "--live-dir", str(live_dir)]) == 0
        return corpus_path, query_csv, key, live_dir

    @pytest.mark.parametrize(
        "engine", [name for name in available_engines() if name != "live"]
    )
    def test_a_live_directory_answers_like_a_bulk_build(
        self, indexed, capsys, engine
    ):
        """Every engine but ``live`` (which needs the writable index, not
        a snapshot) ranks the same tables over ``index`` + ``--live-dir``
        as over the in-memory bulk build."""
        corpus_path, query_csv, key, live_dir = indexed
        arguments = [
            "discover", str(corpus_path), str(query_csv), "--key", *key,
            "--engine", engine, "--k", "5",
        ]
        capsys.readouterr()
        assert main(arguments) == 0
        built = _ranked(capsys.readouterr().out)
        assert main([*arguments, "--live-dir", str(live_dir)]) == 0
        served = _ranked(capsys.readouterr().out)
        assert built, engine
        assert served == built

    def test_discover_refuses_a_directory_without_a_manifest(self, tmp_path):
        from repro.exceptions import StorageError

        corpus_path, query_csv, key = _generated_query(tmp_path)
        missing = tmp_path / "mistyped"
        with pytest.raises(StorageError) as raised:
            main([
                "discover", str(corpus_path), str(query_csv), "--key", *key,
                "--live-dir", str(missing),
            ])
        assert f"repro index CORPUS --live-dir {missing}" in str(raised.value)
        assert not missing.exists()
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(StorageError, match="no manifest.json"):
            main([
                "discover", str(corpus_path), str(query_csv), "--key", *key,
                "--live-dir", str(empty),
            ])
        assert list(empty.iterdir()) == []

    def test_discover_refuses_a_sqlite_index_by_name(self, tmp_path):
        import sqlite3
        from contextlib import closing

        from repro.exceptions import StorageError

        corpus_path, query_csv, key = _generated_query(tmp_path)
        database = tmp_path / "lake.db"
        with closing(sqlite3.connect(database)) as connection:
            connection.execute("CREATE TABLE indexes (name TEXT)")
            connection.commit()
        with pytest.raises(StorageError) as raised:
            main([
                "discover", str(corpus_path), str(query_csv), "--key", *key,
                "--live-dir", str(database),
            ])
        message = str(raised.value)
        assert "SQLite index from an earlier release" in message
        assert "repro index CORPUS --live-dir DIR" in message


class TestLiveDirectoryReads:
    """``discover`` / ``serve-batch --live-dir`` only read the directory:
    its one writer may be running in another process."""

    @pytest.fixture()
    def written(self, tmp_path):
        """A directory with two sealed segments and two tables only in the
        log, plus what a crashed or running writer leaves beside them."""
        from repro.config import MateConfig
        from repro.ingest import LiveIndex

        corpus_path, query_csv, key = _generated_query(tmp_path)
        tables = list(load_corpus_json(corpus_path))
        live_dir = tmp_path / "lake"
        live = LiveIndex.open(live_dir, config=MateConfig(), fsync=False)
        half = len(tables) // 2
        for table in tables[:half]:
            live.add_table(table)
        live.seal()
        for table in tables[half:-2]:
            live.add_table(table)
        live.seal()
        for table in tables[-2:]:
            live.add_table(table)
        live.close()
        (live_dir / "segment-000099.seg").write_bytes(b"renamed, not yet named")
        (live_dir / "segment-000099.sk").write_bytes(b"")
        (live_dir / "manifest.json.tmp").write_text('{"format_version"')
        with (live_dir / "wal.jsonl").open("a", encoding="utf-8") as handle:
            handle.write('{"op":"add_table","seq":999,"table":{"table_id"')
        return corpus_path, query_csv, key, live_dir

    @staticmethod
    def _state(directory):
        return {
            path.name: (path.read_bytes(), path.stat().st_mtime_ns)
            for path in directory.iterdir()
        }

    def test_discover_changes_no_file(self, written, capsys):
        corpus_path, query_csv, key, live_dir = written
        before = self._state(live_dir)
        arguments = [
            "discover", str(corpus_path), str(query_csv), "--key", *key,
            "--k", "5",
        ]
        assert main(arguments) == 0
        built = _ranked(capsys.readouterr().out)
        assert main([*arguments, "--live-dir", str(live_dir)]) == 0
        assert _ranked(capsys.readouterr().out) == built
        assert self._state(live_dir) == before

    def test_serve_batch_changes_no_file(self, written, capsys):
        corpus_path, _, _, live_dir = written
        queries_path = corpus_path.parent / "queries.json"
        before = self._state(live_dir)
        arguments = ["serve-batch", str(corpus_path), str(queries_path), "--k", "3"]
        assert main(arguments) == 0
        built = [l for l in capsys.readouterr().out.splitlines() if "top-3" in l]
        assert main([*arguments, "--live-dir", str(live_dir)]) == 0
        served = [l for l in capsys.readouterr().out.splitlines() if "top-3" in l]
        assert served == built and built
        assert self._state(live_dir) == before


class TestExperimentCommand:
    def test_runs_small_experiment(self, capsys):
        exit_code = main([
            "experiment", "init_column", "--queries", "1", "--scale", "0.05",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "heuristic" in output
        assert "cardinality" in output

    def test_the_experiment_names(self):
        from repro.cli import EXPERIMENT_RUNNERS

        assert sorted(EXPERIMENT_RUNNERS) == sorted([
            "table1", "table2", "table3", "figure4", "figure5", "figure6",
            "topk", "init_column", "index_generation", "scaling",
            "frequency_source", "sharding", "related_work", "short_values",
        ])

    @pytest.mark.parametrize("name", [
        "fetch_cost", "ingest", "planner", "pushdown", "serving", "sketch",
        "telemetry", "columnar",
    ])
    def test_the_subsystem_smoke_studies_are_gone(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", name])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

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
        assert "queries/s" in output
        assert "cache" not in output

    def test_serve_batch_json_document(
        self, tmp_path, capsys, running_example_corpus
    ):
        import json

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
            "--key", "f_name", "l_name", "country", "--k", "2", "--json",
        ])
        assert exit_code == 0
        document = json.loads(capsys.readouterr().out)
        (result,) = document["results"]
        assert result["tables"][0]["table_id"] == 1
        assert result["tables"][0]["joinability"] == 5  # T1 (Figure 1)
        stats = document["stats"]
        assert stats["num_queries"] == 1 and stats["failed_queries"] == 0
        assert stats["k"] == 2
        assert not {"cache_hits", "distinct_probe_values"} & set(stats)
        assert document["failures"] == []

    def test_serve_batch_serves_a_live_directory(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        live_dir = tmp_path / "lake"
        main([
            "generate", "WT_10", "--queries", "2", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        assert main([
            "serve-batch", str(corpus_path), str(queries_path), "--k", "3",
        ]) == 0
        built_output = capsys.readouterr().out
        main(["index", str(corpus_path), "--live-dir", str(live_dir)])
        capsys.readouterr()
        # Served twice from the directory: the same answers as the
        # in-memory build each time.
        for _ in range(2):
            assert main([
                "serve-batch", str(corpus_path), str(queries_path),
                "--live-dir", str(live_dir), "--k", "3",
            ]) == 0
            served_output = capsys.readouterr().out
            ranked = [l for l in served_output.splitlines() if "top-3" in l]
            assert len(ranked) == 2
            assert ranked == [
                l for l in built_output.splitlines() if "top-3" in l
            ]

    def test_serve_batch_stored_layout_overrides_flags(self, tmp_path, capsys):
        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        live_dir = tmp_path / "lake"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        main([
            "index", str(corpus_path), "--live-dir", str(live_dir),
            "--hash-size", "64",
        ])
        capsys.readouterr()
        # A conflicting flag: the stored 64-bit index wins (a 128-bit engine
        # over 64-bit stored super keys would silently filter out real
        # matches).
        exit_code = main([
            "serve-batch", str(corpus_path), str(queries_path),
            "--hash-size", "128",
            "--live-dir", str(live_dir), "--k", "2",
        ])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "using stored index layout" in output
        assert "64-bit xash (ignoring --hash-size)" in output
        assert "served 1 queries" in output

    def test_serve_batch_refuses_a_directory_without_a_manifest(
        self, tmp_path, capsys
    ):
        """A mistyped ``--live-dir`` is refused, naming the command that
        builds the directory; no index is built and nothing is created."""
        from repro.exceptions import StorageError

        corpus_path = tmp_path / "corpus.json"
        queries_path = tmp_path / "queries.json"
        main([
            "generate", "WT_10", "--queries", "1", "--scale", "0.05",
            "--corpus-out", str(corpus_path), "--queries-out", str(queries_path),
        ])
        missing = tmp_path / "mistyped"
        with pytest.raises(StorageError) as raised:
            main([
                "serve-batch", str(corpus_path), str(queries_path),
                "--live-dir", str(missing),
            ])
        assert f"repro index CORPUS --live-dir {missing}" in str(raised.value)
        assert not missing.exists()
        assert "served" not in capsys.readouterr().out


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

    def test_a_directory_holding_a_dwtc_json_lines_file_is_refused(
        self, tmp_path, capsys, running_example_corpus
    ):
        """``repro profile DIR`` fails loudly on the removed JSON-lines
        format instead of profiling the directory without that file."""
        from repro.exceptions import StorageError

        _, corpus = running_example_corpus
        for table in corpus:
            table_to_csv(table, tmp_path / f"{table.name}.csv")
        (tmp_path / "webtables.ndjson").write_text(
            '{"relation": [["a", "y"]], "hasHeader": true}\n', encoding="utf-8"
        )
        with pytest.raises(StorageError, match="webtables.ndjson: the DWTC"):
            main(["profile", str(tmp_path)])
        assert "profile of" not in capsys.readouterr().out


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

    def test_a_directory_holding_a_dwtc_json_lines_file_is_refused(
        self, tmp_path
    ):
        """``repro ingest DIR`` fails loudly on the removed JSON-lines format
        instead of ingesting the directory with that file's tables missing."""
        from repro.datamodel import Table
        from repro.exceptions import StorageError

        source = tmp_path / "lake"
        source.mkdir()
        table_to_csv(
            Table(table_id=0, name="people", columns=["a"], rows=[["x"]]),
            source / "people.csv",
        )
        (source / "webtables.jsonl").write_text(
            '{"relation": [["a", "y"]], "hasHeader": true}\n', encoding="utf-8"
        )
        live_dir = tmp_path / "live"
        with pytest.raises(StorageError) as raised:
            main(["ingest", str(source), "--live-dir", str(live_dir)])
        message = str(raised.value)
        assert "webtables.jsonl" in message and "DWTC" in message
        assert "CSV" in message
        assert not live_dir.exists()
