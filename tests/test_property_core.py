"""Property-based tests for joinability, the top-k heap, and end-to-end
agreement between MATE and the brute-force oracle on random corpora."""

import random

from hypothesis import given, settings, strategies as st

from repro import MateConfig, MateDiscovery, build_index
from repro.baselines import McrDiscovery, ScrJosieDiscovery
from repro.core import (
    TopKHeap,
    exact_joinability,
    joinability_from_matches,
    row_contains_key,
    row_mappings,
    top_k_by_exact_joinability,
)
from repro.core.joinability import verify_table
from repro.datamodel import MISSING, QueryTable, Table, TableCorpus
from repro.engine_sql import SQLPushdownEngine
from repro.metrics import DiscoveryCounters
from tests.helpers import legacy_row_mappings, legacy_verify_table

#: Small vocabulary so that overlaps actually happen.
VOCABULARY = ["ada", "alan", "grace", "berlin", "paris", "rome", "us", "uk", "de"]

values = st.sampled_from(VOCABULARY)
#: Three values plus MISSING: rows repeat cells and keys repeat values often.
dense_values = st.sampled_from(["ada", "us", "uk", MISSING])


def small_tables(draw, num_tables: int, num_columns: int) -> list[Table]:
    tables = []
    for table_id in range(num_tables):
        rows = draw(
            st.lists(
                st.lists(values, min_size=num_columns, max_size=num_columns),
                min_size=1,
                max_size=6,
            )
        )
        tables.append(
            Table(
                table_id=table_id,
                name=f"t{table_id}",
                columns=[f"c{i}" for i in range(num_columns)],
                rows=rows,
            )
        )
    return tables


class TestJoinabilityProperties:
    @given(
        row=st.lists(values, min_size=1, max_size=5),
        key=st.lists(values, min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_row_mappings_are_valid_assignments(self, row, key):
        for mapping in row_mappings(row, tuple(key)):
            assert len(set(mapping)) == len(mapping)
            for position, column in enumerate(mapping):
                assert row[column] == key[position]

    @given(
        row=st.lists(values, min_size=1, max_size=5),
        key=st.lists(values, min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_contains_iff_mappings_exist(self, row, key):
        assert row_contains_key(row, tuple(key)) == bool(row_mappings(row, tuple(key)))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exact_joinability_bounds(self, data):
        query_rows = data.draw(
            st.lists(st.lists(values, min_size=2, max_size=2), min_size=1, max_size=6)
        )
        query_table = Table(
            table_id=100, name="q", columns=["a", "b"], rows=query_rows
        )
        query = QueryTable(table=query_table, key_columns=["a", "b"])
        candidate = small_tables(data.draw, 1, 3)[0]
        score, mapping = exact_joinability(query, candidate)
        assert 0 <= score <= len(query.key_tuples())
        if score > 0:
            assert mapping is not None
            projected = {
                tuple(row[c] for c in mapping) for row in candidate.rows
            }
            assert score == len(projected & query.key_tuples())

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_based_score_never_exceeds_exact(self, data):
        query_rows = data.draw(
            st.lists(st.lists(values, min_size=2, max_size=2), min_size=1, max_size=5)
        )
        query_table = Table(table_id=100, name="q", columns=["a", "b"], rows=query_rows)
        query = QueryTable(table=query_table, key_columns=["a", "b"])
        candidate = small_tables(data.draw, 1, 3)[0]
        matches = [
            (tuple(row), key)
            for row in candidate.rows
            for key in query.key_tuples()
            if row_contains_key(row, key)
        ]
        matches_score, _ = joinability_from_matches(matches)
        exact_score, _ = exact_joinability(query, candidate)
        assert matches_score == exact_score


class TestVerifyTableAgainstLegacyLoop:
    """The table-at-a-time kernel against the per-pair loop it replaced."""

    @given(data=st.data(), width=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_kernel_equals_legacy_loop(self, data, width):
        num_columns = data.draw(st.integers(1, 5))
        rows = data.draw(
            st.lists(
                st.lists(dense_values, min_size=num_columns, max_size=num_columns).map(
                    tuple
                ),
                min_size=1,
                max_size=5,
            )
        )
        key_tuples = st.lists(dense_values, min_size=width, max_size=width).map(tuple)
        # Drawn with replacement: duplicate (row_index, key_tuple) survivors
        # and several key tuples per row are the common case here.
        surviving = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(rows) - 1), key_tuples), max_size=12
            )
        )
        counters = DiscoveryCounters()
        assert (
            *verify_table(rows, surviving, counters),
            counters.true_positive_rows,
            counters.false_positive_rows,
            counters.value_comparisons,
        ) == legacy_verify_table(rows, surviving)
        assert counters.rows_passed_filter == len({index for index, _ in surviving})

    @given(
        row=st.lists(dense_values, min_size=1, max_size=5),
        key=st.lists(dense_values, min_size=0, max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_public_primitives_keep_legacy_semantics(self, row, key):
        expected = legacy_row_mappings(row, tuple(key))
        assert row_mappings(row, tuple(key)) == expected
        assert row_contains_key(row, tuple(key)) == bool(expected)

    def test_engines_report_identical_verification_counters(self):
        """mate, sql, mcr and the JOSIE adapter verify through one function.

        With the single key tuple ``(rome, rome)`` every system's candidate
        rows coincide — the rows holding ``rome`` at least once — so their
        row counters must agree exactly; rows holding it only once are the
        false positives.  The posting-driven engines (mate, sql) get one
        survivor per ``rome`` cell, the baselines one per row, which is the
        only difference in ``value_comparisons``.
        """
        corpus = TableCorpus(name="shared-verification")
        for table_id, rows in enumerate(
            [
                [["rome", "rome", "x"], ["rome", "y", "z"], ["paris", "y", "z"]],
                [["q", "rome", "rome"], ["rome", "rome", "rome"], ["w", "rome", ""]],
                [["paris", "x", "y"]],
            ]
        ):
            corpus.add_table(
                Table(
                    table_id=table_id,
                    name=f"t{table_id}",
                    columns=["c0", "c1", "c2"],
                    rows=rows,
                )
            )
        query = QueryTable(
            table=Table(
                table_id=99, name="q", columns=["from", "to"], rows=[["rome", "rome"]]
            ),
            key_columns=["from", "to"],
        )
        config = MateConfig(hash_size=128, k=5, expected_unique_values=1000)
        index = build_index(corpus, config=config)
        sql = SQLPushdownEngine(corpus, index, config=config)
        try:
            results = [
                engine.discover(query)
                for engine in (
                    MateDiscovery(corpus, index, config=config),
                    sql,
                    McrDiscovery(corpus, index, config=config),
                    ScrJosieDiscovery(corpus, config=config),
                )
            ]
        finally:
            sql.close()
        verification = [
            (
                result.counters.value_comparisons,
                result.counters.rows_passed_filter,
                result.counters.true_positive_rows,
                result.counters.false_positive_rows,
            )
            for result in results
        ]
        # 5 rows hold "rome" in 9 cells; each pair costs 3 cells x 2 values.
        assert verification == [(54, 5, 3, 2)] * 2 + [(30, 5, 3, 2)] * 2
        assert [result.result_tuples() for result in results] == [
            [(0, 1), (1, 1)]
        ] * 4
        # max((support, mapping)) tie-break, the same in every system.
        assert [
            [table.column_mapping for table in result.tables] for result in results
        ] == [[(1, 0), (2, 1)]] * 4


class TestTopKProperties:
    @given(
        entries=st.lists(
            st.tuples(st.integers(0, 50), st.integers(0, 30)), max_size=40
        ),
        k=st.integers(1, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_heap_matches_sorted_reference(self, entries, k):
        heap = TopKHeap(k)
        best_per_table: dict[int, int] = {}
        for table_id, joinability in entries:
            heap.update(table_id, joinability)
            if joinability > 0:
                best_per_table[table_id] = max(
                    best_per_table.get(table_id, 0), joinability
                )
        # Note: the heap treats repeated updates for the same table as
        # independent offers, so compare only the joinability values.
        reference = sorted(
            (j for j in (joinability for _, joinability in entries) if j > 0),
            reverse=True,
        )
        heap_scores = [entry.joinability for entry in heap.results()]
        assert heap_scores == sorted(heap_scores, reverse=True)
        assert len(heap_scores) <= k
        if reference:
            assert heap_scores[0] == reference[0]


class TestDiscoveryAgainstBruteForce:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_mate_equals_brute_force_on_random_corpora(self, seed):
        rng = random.Random(seed)
        corpus = TableCorpus(name=f"random-{seed}")
        for table_id in range(6):
            num_columns = rng.randint(2, 4)
            rows = [
                [rng.choice(VOCABULARY) for _ in range(num_columns)]
                for _ in range(rng.randint(1, 8))
            ]
            corpus.add_table(
                Table(
                    table_id=table_id,
                    name=f"t{table_id}",
                    columns=[f"c{i}" for i in range(num_columns)],
                    rows=rows,
                )
            )
        query_rows = [
            [rng.choice(VOCABULARY), rng.choice(VOCABULARY)] for _ in range(4)
        ]
        query = QueryTable(
            table=Table(table_id=99, name="q", columns=["a", "b"], rows=query_rows),
            key_columns=["a", "b"],
        )
        config = MateConfig(hash_size=128, k=3, expected_unique_values=700_000_000)
        index = build_index(corpus, config=config)
        result = MateDiscovery(corpus, index, config=config).discover(query, k=3)
        truth = top_k_by_exact_joinability(query, corpus, k=3)
        assert [j for _, j in result.result_tuples()] == [j for _, j in truth]
