"""Tests for the synthetic data generators: vocab, corpora, queries, planting."""


import pytest

from repro.core import exact_joinability_score
from repro.datagen import (
    COLUMN_FACTORIES,
    KEYABLE_COLUMN_TYPES,
    OPEN_DATA_PROFILE,
    PROFILES,
    SCHOOL_PROFILE,
    WEB_TABLE_PROFILE,
    generate_airline_query,
    generate_corpus,
    generate_entity_query,
    generate_movie_query,
    generate_school_query,
    generate_sensor_query,
    plant_distractor_table,
    plant_joinable_table,
)
from repro.datagen import vocab
from repro.datamodel import TableCorpus


class TestVocab:
    def test_random_word_length_bounds(self, rng):
        for _ in range(50):
            word = vocab.random_word(rng, 3, 8)
            assert 3 <= len(word) <= 8
            assert word.isalpha()

    def test_random_date_format(self, rng):
        date = vocab.random_date(rng)
        year, month, day = date.split("-")
        assert len(year) == 4 and len(month) == 2 and len(day) == 2

    def test_random_timestamp_contains_hour(self, rng):
        assert ":" in vocab.random_timestamp(rng)

    def test_random_code_alphanumeric(self, rng):
        code = vocab.random_code(rng, length=8)
        assert len(code) == 8

    def test_zipf_choice_skews_towards_head(self, rng):
        values = tuple(f"v{i}" for i in range(100))
        draws = [vocab.zipf_choice(rng, values) for _ in range(2000)]
        head = sum(1 for draw in draws if draw in values[:10])
        tail = sum(1 for draw in draws if draw in values[-10:])
        assert head > tail * 3

    def test_zipf_choice_rejects_empty(self, rng):
        with pytest.raises(ValueError):
            vocab.zipf_choice(rng, ())

    def test_shared_tokens_are_deterministic_and_unique(self):
        assert len(vocab.SHARED_TOKENS) == len(set(vocab.SHARED_TOKENS))
        assert len(vocab.SHARED_TOKENS) >= 1000

    def test_named_factories(self, rng):
        assert " " in vocab.full_name(rng)
        assert vocab.movie_title(rng)
        assert vocab.airline_name(rng)
        assert vocab.school_name(rng).endswith("school")


class TestCorpusGenerators:
    def test_profiles_registered(self):
        assert set(PROFILES) == {"webtables", "opendata", "school"}

    def test_generate_corpus_shapes(self):
        corpus = generate_corpus(WEB_TABLE_PROFILE, seed=1, scale=0.05)
        assert len(corpus) == max(1, int(WEB_TABLE_PROFILE.num_tables * 0.05))
        for table in corpus:
            assert table.num_rows >= WEB_TABLE_PROFILE.min_rows
            assert table.num_columns >= WEB_TABLE_PROFILE.min_columns

    def test_open_data_tables_are_wider_than_web_tables(self):
        web = generate_corpus(WEB_TABLE_PROFILE, seed=2, scale=0.05)
        od = generate_corpus(OPEN_DATA_PROFILE, seed=2, scale=0.1)
        assert od.average_columns_per_table() > web.average_columns_per_table()

    def test_school_profile_is_very_wide(self):
        school = generate_corpus(SCHOOL_PROFILE, seed=3, scale=0.1)
        assert school.average_columns_per_table() >= 15

    def test_generation_is_deterministic(self):
        first = generate_corpus("webtables", seed=9, scale=0.03)
        second = generate_corpus("webtables", seed=9, scale=0.03)
        assert [t.rows for t in first] == [t.rows for t in second]

    def test_different_seeds_differ(self):
        first = generate_corpus("webtables", seed=1, scale=0.03)
        second = generate_corpus("webtables", seed=2, scale=0.03)
        assert [t.rows for t in first] != [t.rows for t in second]

    def test_values_are_shared_across_tables(self):
        corpus = generate_corpus(WEB_TABLE_PROFILE, seed=5, scale=0.1)
        stats = corpus.statistics()
        # Heavy value reuse: far fewer distinct values than cells.
        assert stats.num_unique_values < stats.num_cells * 0.8

    def test_scaled_profile(self):
        scaled = WEB_TABLE_PROFILE.scaled(0.5)
        assert scaled.num_tables == WEB_TABLE_PROFILE.num_tables // 2
        assert scaled.min_rows == WEB_TABLE_PROFILE.min_rows

    def test_column_factories_cover_keyable_types(self):
        assert set(KEYABLE_COLUMN_TYPES) <= set(COLUMN_FACTORIES)


class TestQueryGenerators:
    def test_entity_query_shape(self, rng):
        query = generate_entity_query(5, rng, cardinality=25, key_size=3)
        assert query.key_size == 3
        assert len(query.key_tuples()) == 25
        assert query.table.table_id == 5

    def test_entity_query_key_size_one(self, rng):
        assert generate_entity_query(5, rng, cardinality=5, key_size=1).key_size == 1

    def test_movie_query(self, rng):
        query = generate_movie_query(7, rng, cardinality=30)
        assert query.key_columns == ["director name", "movie title"]
        assert len(query.key_tuples()) == 30

    def test_airline_query(self, rng):
        query = generate_airline_query(7, rng, cardinality=20)
        assert query.key_columns == ["airline name", "country"]
        assert len(query.key_tuples()) == 20

    def test_school_query_is_wide(self, rng):
        query = generate_school_query(7, rng, cardinality=40, extra_columns=20)
        assert query.table.num_columns == 22
        assert query.key_columns == ["program type", "school name"]

    def test_sensor_query(self, rng):
        query = generate_sensor_query(7, rng, cardinality=15)
        assert query.key_columns == ["timestamp", "location"]
        assert len(query.key_tuples()) == 15


class TestPlanting:
    def test_planted_joinability_is_exact(self, rng):
        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=20, key_size=2)
        planted = plant_joinable_table(corpus, query, rng, joinability=12)
        table = corpus.get_table(planted.table_id)
        assert planted.planted_joinability == 12
        assert exact_joinability_score(query, table) == 12
        assert not planted.is_distractor

    def test_planted_joinability_clamped_to_cardinality(self, rng):
        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=5, key_size=2)
        planted = plant_joinable_table(corpus, query, rng, joinability=50)
        assert planted.planted_joinability == 5

    def test_planted_table_has_renamed_and_shuffled_columns(self, rng):
        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=10, key_size=3)
        planted = plant_joinable_table(corpus, query, rng, joinability=5)
        table = corpus.get_table(planted.table_id)
        assert not set(query.key_columns) & set(table.columns)
        assert len(set(table.columns)) == len(table.columns)

    def test_distractor_table_never_joins_fully(self, rng):
        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=15, key_size=2)
        planted = plant_distractor_table(corpus, query, rng, matching_rows=30)
        table = corpus.get_table(planted.table_id)
        assert planted.is_distractor
        assert planted.planted_joinability == 0
        # A distractor may match a full key only by coincidence; with 2-column
        # keys and disjoint noise values this must stay far below cardinality.
        assert exact_joinability_score(query, table) <= 2

    def test_distractor_shares_single_values(self, rng, config):
        from repro import build_index

        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=15, key_size=2)
        planted = plant_distractor_table(corpus, query, rng, matching_rows=30)
        index = build_index(corpus, config=config)
        initial_values = query.table.distinct_column_values(query.key_columns[0])
        hits = index.fetch_batch(sorted(initial_values))
        assert any(
            planted.table_id in block.table_ids for block in hits
        ) or index.fetch_batch(
            sorted(query.table.distinct_column_values(query.key_columns[1]))
        )

    def test_explicit_extra_columns_respected(self, rng):
        corpus = TableCorpus(name="plant")
        query = generate_entity_query(100, rng, cardinality=10, key_size=2)
        planted = plant_joinable_table(
            corpus, query, rng, joinability=5, extra_columns=7
        )
        table = corpus.get_table(planted.table_id)
        assert table.num_columns == query.key_size + 7
