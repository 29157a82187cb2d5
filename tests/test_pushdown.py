"""Equivalence and accelerator tests for the SQL-pushdown engine.

The contract under test: ``engine="sql"`` returns the *same discovery
result* as ``engine="mate"`` — ranked tables, column mappings, names,
completeness, and every counter the pushdown replays — while performing
zero Python-side posting-list fetches and zero Python-side super-key
checks (those costs move into SQLite).  The property suites below pin that
contract across both lanes of the index build, hash widths (single-limb,
two-limb, and the BLOB-UDF fallback), row-filter modes, table filters, k
values, fetch budgets, and deadline expiry; the accelerator suite covers the
``pushdown_postings`` schema each engine builds in memory.
"""

from __future__ import annotations

import sqlite3
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    DiscoveryRequest,
    DiscoverySession,
    MateConfig,
    MateDiscovery,
    build_index,
)
from repro.api import PlannerOptions
from repro.api.registry import available_engines
from repro.api.request import RequestBudget
from repro.core.topk import TopKHeap
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.engine_sql import SQLPushdownEngine
from repro.engine_sql.accelerator import (
    MAX_NARROW_HASH_SIZE,
    build_accelerator,
    split_limbs,
)
from repro.exceptions import DiscoveryError, StorageError

from tests.helpers import BUILD_LANES, build_in_lane
from tests.test_plan_property import corpus_and_query

#: Counters the pushdown engine must replay byte-for-byte.  Deliberately
#: excludes ``pl_items_fetched`` / ``superkey_checks`` / ``short_circuit_hits``
#: — those measure work the pushdown moves into the database and are pinned
#: to zero separately — and wall-clock ``runtime_seconds``.
REPLAYED_COUNTERS = (
    "candidate_tables",
    "tables_evaluated",
    "tables_pruned_by_rule1",
    "tables_pruned_by_rule2",
    "rows_checked",
    "rows_passed_filter",
    "true_positive_rows",
    "false_positive_rows",
    "value_comparisons",
    "budget_exhausted",
    "deadline_expired",
)


def assert_pushdown_identical(result, oracle) -> None:
    """``result`` (sql) must equal ``oracle`` (mate) on everything replayed.

    Also asserts the pushdown's defining property: no posting list and no
    super key ever crossed into Python, and the rows the database scanned
    equal the rows the mate engine fetched.
    """
    assert result.k == oracle.k
    assert result.complete == oracle.complete
    assert [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in result.tables
    ] == [
        (t.table_id, t.joinability, t.column_mapping, t.table_name)
        for t in oracle.tables
    ]
    mine = result.counters.as_dict()
    theirs = oracle.counters.as_dict()
    for name in REPLAYED_COUNTERS:
        assert mine[name] == theirs[name], name
    assert (
        result.counters.extra["initial_column_cardinality"]
        == oracle.counters.extra["initial_column_cardinality"]
    )
    # The pushdown property itself.
    assert result.counters.pl_items_fetched == 0
    assert result.counters.superkey_checks == 0
    assert result.counters.short_circuit_hits == 0
    assert (
        result.counters.extra["pushdown_rows_scanned"]
        == oracle.counters.pl_items_fetched
    )


def build_engines(
    corpus: TableCorpus,
    *,
    lane: str | None = None,
    hash_size: int = 128,
    row_filter_mode: str = "superkey",
    use_table_filters: bool = True,
) -> tuple[MateDiscovery, SQLPushdownEngine]:
    config = MateConfig(hash_size=hash_size, k=3, expected_unique_values=1000)
    if lane is None:
        index = build_index(corpus, config=config)
    else:
        index = build_in_lane(lane, corpus, config=config)
    mate = MateDiscovery(
        corpus, index, config=config,
        row_filter_mode=row_filter_mode,
        use_table_filters=use_table_filters,
    )
    sql = SQLPushdownEngine(
        corpus, index, config=config,
        row_filter_mode=row_filter_mode,
        use_table_filters=use_table_filters,
    )
    return mate, sql


@pytest.mark.parametrize("lane", BUILD_LANES)
class TestPushdownEquivalenceProperties:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_identical_without_budget(self, lane, data):
        corpus, query = corpus_and_query(data.draw)
        mate, sql = build_engines(corpus, lane=lane)
        try:
            k = data.draw(st.integers(min_value=1, max_value=5))
            assert_pushdown_identical(
                sql.discover(query, k=k), mate.discover(query, k=k)
            )
        finally:
            sql.close()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_identical_under_fetch_budget(self, lane, data):
        corpus, query = corpus_and_query(data.draw)
        mate, sql = build_engines(corpus, lane=lane)
        try:
            limit = data.draw(st.integers(min_value=0, max_value=6))
            result = sql.discover(
                query, budget=RequestBudget(max_pl_fetches=limit)
            )
            oracle = mate.discover(
                query, budget=RequestBudget(max_pl_fetches=limit)
            )
            assert_pushdown_identical(result, oracle)
        finally:
            sql.close()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_identical_across_filter_modes(self, lane, data):
        corpus, query = corpus_and_query(data.draw)
        row_filter_mode = data.draw(st.sampled_from(["superkey", "none"]))
        use_table_filters = data.draw(st.booleans())
        mate, sql = build_engines(
            corpus,
            lane=lane,
            row_filter_mode=row_filter_mode,
            use_table_filters=use_table_filters,
        )
        try:
            assert_pushdown_identical(
                sql.discover(query), mate.discover(query)
            )
        finally:
            sql.close()


@pytest.mark.parametrize("hash_size", [48, 256])
class TestPushdownHashWidths:
    """The two non-default reject paths.

    48 bits exercises the two-limb predicate with an all-zero high limb;
    256 bits exceeds :data:`MAX_NARROW_HASH_SIZE` and must fall back to the
    registered ``repro_covers`` BLOB function.  (The default 128-bit path is
    covered by the main property suite.)
    """

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_identical_at_width(self, hash_size, data):
        corpus, query = corpus_and_query(data.draw)
        mate, sql = build_engines(corpus, hash_size=hash_size)
        try:
            assert sql._narrow is (hash_size <= MAX_NARROW_HASH_SIZE)
            assert_pushdown_identical(
                sql.discover(query), mate.discover(query)
            )
        finally:
            sql.close()


class TestSplitLimbs:
    def test_round_trips_through_signed_limbs(self):
        for value in (0, 1, (1 << 63), (1 << 64) - 1, (1 << 128) - 1,
                      0xDEADBEEF << 70):
            hi, lo = split_limbs(value)
            assert -(1 << 63) <= hi < (1 << 63)
            assert -(1 << 63) <= lo < (1 << 63)
            assert (hi % (1 << 64)) << 64 | (lo % (1 << 64)) == value


def small_fixture() -> tuple[TableCorpus, QueryTable]:
    corpus = TableCorpus(name="fixed")
    corpus.add_table(Table(
        table_id=0, name="t0", columns=["a", "b", "c"],
        rows=[["ada", "berlin", "de"], ["alan", "london", "uk"],
              ["grace", "paris", "fr"]],
    ))
    corpus.add_table(Table(
        table_id=1, name="t1", columns=["a", "b", "c"],
        rows=[["ada", "berlin", "x"], ["ada", "rome", "it"]],
    ))
    query = QueryTable(
        table=Table(table_id=900, name="q", columns=["x", "y"],
                    rows=[["ada", "berlin"], ["alan", "london"]]),
        key_columns=["x", "y"],
    )
    return corpus, query


class TestDeadlinesAndErrors:
    def test_pre_expired_deadline_matches_mate(self):
        corpus, query = small_fixture()
        mate, sql = build_engines(corpus)
        try:
            budgets = []
            for _ in range(2):
                budget = RequestBudget(deadline_seconds=1e-9)
                budgets.append(budget)
            time.sleep(0.01)
            result = sql.discover(query, budget=budgets[0])
            oracle = mate.discover(query, budget=budgets[1])
            assert_pushdown_identical(result, oracle)
            assert result.counters.deadline_expired == 1
            assert not result.complete
        finally:
            sql.close()

    def test_oracle_row_filter_is_refused(self):
        corpus, _ = small_fixture()
        config = MateConfig(hash_size=128, expected_unique_values=1000)
        index = build_index(corpus, config=config)
        with pytest.raises(DiscoveryError, match="row_filter_mode"):
            SQLPushdownEngine(
                corpus, index, config=config, row_filter_mode="oracle"
            )

    def test_k_must_be_positive(self):
        corpus, query = small_fixture()
        _, sql = build_engines(corpus)
        try:
            with pytest.raises(DiscoveryError, match="k must be positive"):
                sql.discover(query, k=0)
        finally:
            sql.close()

    def test_close_is_idempotent(self):
        corpus, query = small_fixture()
        _, sql = build_engines(corpus)
        sql.discover(query)
        sql.close()
        sql.close()


class TestAccelerator:
    """The private in-memory accelerator every engine builds."""

    def _index(self, hash_size: int = 128):
        corpus, _ = small_fixture()
        config = MateConfig(
            hash_size=hash_size, expected_unique_values=1000
        )
        return build_index(corpus, config=config)

    def test_one_row_per_posting_under_both_indexes(self):
        index = self._index()
        connection = sqlite3.connect(":memory:")
        assert build_accelerator(connection, index) == index.num_posting_items()
        names = {
            name for (name,) in connection.execute(
                "SELECT name FROM sqlite_master"
            )
        }
        # Nothing is reopened from a file, so no provenance table exists.
        assert names == {
            "pushdown_postings", "pushdown_by_value", "pushdown_by_table"
        }
        rows = connection.execute(
            "SELECT DISTINCT index_name FROM pushdown_postings"
        ).fetchall()
        assert rows == [("main",)]
        connection.close()

    def test_each_engine_owns_its_accelerator(self):
        corpus, query = small_fixture()
        config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
        index = build_index(corpus, config=config)
        first = SQLPushdownEngine(corpus, index, config=config)
        second = SQLPushdownEngine(corpus, index, config=config)
        try:
            assert first._connection is not second._connection
            mate = MateDiscovery(corpus, index, config=config)
            first.close()
            assert_pushdown_identical(second.discover(query), mate.discover(query))
        finally:
            second.close()

    def test_unsuitable_index_is_refused(self):
        connection = sqlite3.connect(":memory:")
        with pytest.raises(StorageError, match="does not expose"):
            build_accelerator(connection, object())


class TestSessionDispatch:
    @pytest.fixture()
    def corpus_query(self):
        return small_fixture()

    def test_sql_engine_is_registered(self):
        assert "sql" in available_engines()

    def test_session_results_match_mate(self, corpus_query):
        corpus, query = corpus_query
        config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
        with DiscoverySession(corpus, config=config) as session:
            assert "sql" in session.engines()
            via_sql = session.discover(
                DiscoveryRequest(query=query, engine="sql")
            )
            via_mate = session.discover(
                DiscoveryRequest(query=query, engine="mate")
            )
            assert_pushdown_identical(via_sql.response, via_mate.response)

    def test_budgeted_dispatch(self, corpus_query):
        corpus, query = corpus_query
        config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
        with DiscoverySession(corpus, config=config) as session:
            limited = session.discover(
                DiscoveryRequest(query=query, engine="sql", max_pl_fetches=1)
            )
            assert not limited.complete
            assert limited.counters.budget_exhausted == 1

    def test_topk_updates_follow_mate(self, corpus_query, monkeypatch):
        """The pushdown engine ranks candidates in MATE's order: the top-k
        after every accepted heap update is the same sequence."""
        corpus, query = corpus_query
        config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
        rankings: list[list[tuple[int, int]]] = []
        update = TopKHeap.update

        def update_and_record(heap, table_id, joinability):
            kept = update(heap, table_id, joinability)
            if kept:
                rankings.append(heap.result_tuples())
            return kept

        monkeypatch.setattr(TopKHeap, "update", update_and_record)
        with DiscoverySession(corpus, config=config) as session:
            sequences = []
            for engine in ("sql", "mate"):
                rankings.clear()
                served = session.discover(DiscoveryRequest(query=query, engine=engine))
                assert rankings[-1] == served.result_tuples()
                sequences.append(list(rankings))
        assert sequences[0] == sequences[1]

    def test_planner_options_are_refused(self, corpus_query):
        corpus, query = corpus_query
        config = MateConfig(hash_size=128, k=3, expected_unique_values=1000)
        with DiscoverySession(corpus, config=config) as session:
            with pytest.raises(DiscoveryError, match="planner"):
                session.discover(DiscoveryRequest(
                    query=query, engine="sql",
                    planner=PlannerOptions(mode="cost"),
                ))


class TestCLIEngineValidation:
    def _paths(self, tmp_path, running_example_corpus):
        from repro.storage import save_corpus_json, table_to_csv

        query, corpus = running_example_corpus
        corpus_path = tmp_path / "corpus.json"
        save_corpus_json(corpus, corpus_path)
        query_csv = table_to_csv(query.table, tmp_path / "query.csv")
        return corpus_path, query_csv

    def test_unknown_engine_fails_with_registry_listing(
        self, tmp_path, capsys, running_example_corpus
    ):
        from repro.cli import main

        corpus_path, query_csv = self._paths(tmp_path, running_example_corpus)
        exit_code = main([
            "discover", str(corpus_path), str(query_csv),
            "--key", "f_name", "l_name", "country",
            "--engine", "warp-drive",
        ])
        assert exit_code == 2
        error = capsys.readouterr().err
        assert "warp-drive" in error
        for name in available_engines():
            assert name in error

    def test_discover_runs_with_sql_engine(
        self, tmp_path, capsys, running_example_corpus
    ):
        from repro.cli import main

        corpus_path, query_csv = self._paths(tmp_path, running_example_corpus)
        exit_code = main([
            "discover", str(corpus_path), str(query_csv),
            "--key", "f_name", "l_name", "country",
            "--k", "2", "--engine", "sql",
        ])
        assert exit_code == 0
        assert "top-2" in capsys.readouterr().out

    def test_engine_help_lists_registry(self):
        from repro.cli import build_parser

        parser = build_parser()
        # The discover subparser's --engine help is generated from the
        # registry, so new engines appear without touching the CLI.
        text = parser.format_help()
        for action in parser._subparsers._group_actions:
            if "discover" in action.choices:
                text = action.choices["discover"].format_help()
        assert "sql" in text
