"""An engine and its index must agree on the super-key width.

The super-key test compares the query's aggregated keys with the stored
row keys, so both must come out of the same hash at the same width: a
128-bit engine over a 256-bit index (or the reverse) used to answer an
empty top-k, marked complete.  ``MateDiscovery`` now refuses the pair in
row-filter mode ``superkey``, and ``repro discover --live-dir`` adopts the
stored index's hash size, as ``serve-batch`` does.
"""

from __future__ import annotations

import json

import pytest

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    build_index,
)
from repro.cli import main
from repro.exceptions import DiscoveryError
from repro.ingest import LiveIndex
from repro.storage import save_corpus_json, table_to_csv


@pytest.fixture()
def stored_256(tmp_path, running_example_corpus):
    """The Figure 1 corpus with its 256-bit index, written by ``repro
    index`` and served from a snapshot of the live directory."""
    query, corpus = running_example_corpus
    corpus_path = save_corpus_json(corpus, tmp_path / "corpus.json")
    live_dir = tmp_path / "lake"
    assert main([
        "index", str(corpus_path), "--live-dir", str(live_dir),
        "--hash-size", "256",
    ]) == 0
    with LiveIndex.open(live_dir, config=MateConfig(hash_size=256)) as live:
        index = live.snapshot()
    return query, corpus, index, live_dir


def answer(result):
    return [(table.table_id, table.joinability) for table in result.tables]


class TestEngineRefusesAnotherWidth:
    def test_default_config_over_a_stored_256_bit_index(self, stored_256):
        query, corpus, index, _database = stored_256
        with pytest.raises(DiscoveryError) as raised:
            MateDiscovery(corpus, index, config=MateConfig())
        assert "128-bit config, 256-bit index" in str(raised.value)
        # The session runs the same check: no silently empty answer.
        with DiscoverySession(corpus, index, config=MateConfig()) as session:
            with pytest.raises(DiscoveryError, match="256-bit index"):
                session.discover(DiscoveryRequest(query=query))
        with DiscoverySession(
            corpus, index, config=MateConfig(hash_size=256)
        ) as session:
            result = session.discover(DiscoveryRequest(query=query))
        assert answer(result)[0] == (1, 5) and result.complete

    def test_wider_config_over_a_128_bit_index(self, running_example_corpus):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=MateConfig())
        with pytest.raises(DiscoveryError, match="256-bit config, 128-bit index"):
            MateDiscovery(corpus, index, config=MateConfig(hash_size=256))

    @pytest.mark.parametrize("mode", ["none", "oracle"])
    def test_filters_without_super_keys_run_at_any_width(
        self, running_example_corpus, mode
    ):
        query, corpus = running_example_corpus
        index = build_index(corpus, config=MateConfig())
        engine = MateDiscovery(
            corpus, index, config=MateConfig(hash_size=256), row_filter_mode=mode
        )
        assert answer(engine.discover(query))[0] == (1, 5)


class TestDiscoverAdoptsTheStoredWidth:
    def test_discover_live_dir_uses_the_stored_hash_size(
        self, tmp_path, capsys, stored_256
    ):
        query, corpus, _index, live_dir = stored_256
        corpus_path = save_corpus_json(corpus, tmp_path / "corpus.json")
        query_csv = table_to_csv(query.table, tmp_path / "query.csv")
        arguments = [
            "discover", str(corpus_path), str(query_csv),
            "--key", "f_name", "l_name", "country",
            "--live-dir", str(live_dir), "--k", "2",
        ]
        capsys.readouterr()
        assert main(arguments) == 0
        output = capsys.readouterr().out
        assert (
            f"using stored index layout from {live_dir}: 256-bit xash "
            "(ignoring --hash-size)"
        ) in output
        assert "joinability=5" in output.replace(" ", "")
        # Under --json the notice goes to stderr: stdout stays one document.
        assert main([*arguments, "--json"]) == 0
        captured = capsys.readouterr()
        assert "using stored index layout" in captured.err
        document = json.loads(captured.out)
        assert [entry["table_id"] for entry in document["tables"]][0] == 1
