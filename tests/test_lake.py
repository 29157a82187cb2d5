"""Tests for data-lake ingestion (repro.lake.data_lake)."""

from __future__ import annotations

import pytest

from repro.config import MateConfig
from repro.datamodel import QueryTable, Table, TableCorpus
from repro.exceptions import CorpusError, StorageError
from repro.lake import DataLake
from repro.storage import table_from_csv, table_to_csv


# ----------------------------------------------------------------------
# DataLake facade
# ----------------------------------------------------------------------
@pytest.fixture()
def lake_directory(tmp_path):
    """A directory with four CSV tables."""
    people = Table(
        table_id=0,
        name="people",
        columns=["first_name", "last_name", "country", "occupation"],
        rows=[
            ["muhammad", "lee", "us", "dancer"],
            ["ansel", "adams", "uk", "photographer"],
            ["helmut", "newton", "germany", "photographer"],
            ["gretchen", "lee", "germany", "artist"],
        ],
    )
    salaries = Table(
        table_id=1,
        name="salaries",
        columns=["first_name", "last_name", "country", "salary"],
        rows=[
            ["muhammad", "lee", "us", "60000"],
            ["ansel", "adams", "uk", "50000"],
            ["ansel", "adams", "us", "400000"],
        ],
    )
    table_to_csv(people, tmp_path / "people.csv")
    table_to_csv(salaries, tmp_path / "salaries.csv")
    airports = Table(
        table_id=2,
        name="airports",
        columns=["airline", "country", "airport"],
        rows=[["luftair", "germany", "hannover"], ["skyjet", "us", "boston"]],
    )
    events = Table(
        table_id=3,
        name="events",
        columns=["city", "event"],
        rows=[["berlin", "marathon"], ["hannover", "festival"]],
    )
    table_to_csv(airports, tmp_path / "airports.csv")
    table_to_csv(events, tmp_path / "events.csv")
    return tmp_path


class TestDataLake:
    def test_from_directory_ingests_every_csv(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        assert len(lake) == 4
        assert "people" in lake.sources
        assert "salaries" in lake.sources
        people = lake.table_by_source("people")
        assert people.num_rows == 4

    def test_from_directory_rejects_files(self, tmp_path):
        with pytest.raises(StorageError):
            DataLake.from_directory(tmp_path / "missing")

    @pytest.mark.parametrize("suffix", [".json", ".jsonl", ".ndjson", ".JSONL"])
    def test_a_dwtc_json_lines_file_is_refused_by_name(self, tmp_path, suffix):
        """The removed JSON-lines format fails loudly instead of leaving its
        tables out of the lake."""
        table = Table(table_id=0, name="people", columns=["a"], rows=[["x"]])
        table_to_csv(table, tmp_path / "people.csv")
        (tmp_path / f"webtables{suffix}").write_text(
            '{"relation": [["a", "y"]], "hasHeader": true}\n', encoding="utf-8"
        )
        refusal = f"webtables{suffix}: the DWTC"
        with pytest.raises(StorageError, match=refusal) as raised:
            DataLake.from_directory(tmp_path)
        assert "CSV" in str(raised.value)

    def test_corpus_name_defaults_to_the_directory_name(self, lake_directory):
        assert DataLake.from_directory(lake_directory).corpus.name == (
            lake_directory.name
        )
        named = DataLake.from_directory(lake_directory, name="crm")
        assert named.corpus.name == "crm"

    def test_max_tables_cap(self, lake_directory):
        lake = DataLake.from_directory(lake_directory, max_tables=2)
        assert len(lake) == 2

    def test_unknown_source_raises(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        with pytest.raises(CorpusError):
            lake.table_by_source("nope")

    def test_effective_config_derived_from_profile(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        config = lake.effective_config()
        assert config.expected_unique_values == lake.profile().num_unique_values

    def test_explicit_config_is_respected(self, lake_directory):
        config = MateConfig(hash_size=256, expected_unique_values=500)
        lake = DataLake.from_directory(lake_directory, config=config)
        assert lake.effective_config() is config
        assert lake.index().hash_size == 256

    def test_index_is_cached_and_rebuildable(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        first = lake.index()
        assert lake.index() is first
        assert lake.index(rebuild=True) is not first

    def test_discover_from_query_table(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        query = QueryTable(
            table=lake.table_by_source("people"),
            key_columns=["first_name", "last_name", "country"],
        )
        result = lake.discover(query, k=3)
        salaries_id = lake.sources["salaries"]
        assert result.joinability_of(salaries_id) == 2

    def test_discover_from_a_csv_query_file(self, lake_directory, tmp_path):
        lake = DataLake.from_directory(lake_directory)
        query_csv = tmp_path / "queries" / "query.csv"
        query_csv.parent.mkdir()
        query_csv.write_text(
            "first_name,last_name,country\nmuhammad,lee,us\nansel,adams,uk\n",
            encoding="utf-8",
        )
        query = QueryTable(
            table_from_csv(999, query_csv), ["first_name", "last_name", "country"]
        )
        result = lake.discover(query, k=2)
        assert result.tables
        assert result.tables[0].joinability >= 1
        assert result.joinability_of(lake.sources["salaries"]) == 2

    def test_built_from_an_in_memory_corpus(self):
        tables = [
            Table(table_id=0, name="a", columns=["x"], rows=[["1"]]),
            Table(table_id=1, name="b", columns=["y"], rows=[["2"]]),
        ]
        lake = DataLake(corpus=TableCorpus(name="inline", tables=tables))
        assert len(lake) == 2
        assert lake.corpus.name == "inline"
        assert lake.index().num_posting_items() == 2

    def test_a_table_added_to_the_corpus_is_indexed_on_rebuild(
        self, lake_directory
    ):
        lake = DataLake.from_directory(lake_directory)
        before = lake.index().num_posting_items()
        extra = Table(
            table_id=lake.corpus.next_table_id(),
            name="extra",
            columns=["a"],
            rows=[["zebra"]],
        )
        lake.corpus.add_table(extra)
        assert lake.index().num_posting_items() == before  # still cached
        assert lake.index(rebuild=True).num_posting_items() == before + 1

    def test_table_ids_follow_the_sorted_file_names(self, lake_directory):
        lake = DataLake.from_directory(lake_directory)
        assert lake.sources == {
            "airports": 0, "events": 1, "people": 2, "salaries": 3,
        }
        assert [lake.corpus.get_table(i).name for i in range(4)] == [
            "airports", "events", "people", "salaries",
        ]

    def test_files_with_other_suffixes_are_skipped(self, lake_directory):
        (lake_directory / "README.txt").write_text("notes\n", encoding="utf-8")
        (lake_directory / "data.parquet").write_bytes(b"PAR1")
        lake = DataLake.from_directory(lake_directory)
        assert sorted(lake.sources) == ["airports", "events", "people", "salaries"]

    def test_recursive_scan_reaches_nested_csv_files(self, lake_directory):
        nested = lake_directory / "archive" / "2021"
        nested.mkdir(parents=True)
        table = Table(table_id=0, name="cities", columns=["city"], rows=[["rome"]])
        table_to_csv(table, nested / "cities.csv")
        assert "cities" not in DataLake.from_directory(lake_directory).sources
        lake = DataLake.from_directory(lake_directory, recursive=True)
        assert len(lake) == 5
        assert lake.table_by_source("cities").column_values("city") == ["rome"]

    @pytest.mark.parametrize(
        "content",
        [b"name\n\xe9t\xe9\n", b""],
        ids=["not-utf8", "empty"],
    )
    def test_a_csv_that_cannot_be_read_is_refused_by_name(
        self, lake_directory, content
    ):
        """One bad file fails the whole directory instead of leaving its
        table out of the lake."""
        (lake_directory / "broken.csv").write_bytes(content)
        with pytest.raises(StorageError, match="broken.csv"):
            DataLake.from_directory(lake_directory)

    def test_blank_lines_are_skipped(self, lake_directory):
        """``csv.reader`` yields no cells for a blank line: it is no row."""
        (lake_directory / "gappy.csv").write_text(
            "city,event\n\nberlin,marathon\n\nhannover,festival\n\n",
            encoding="utf-8",
        )
        gappy = DataLake.from_directory(lake_directory).table_by_source("gappy")
        assert gappy.columns == ["city", "event"]
        assert [list(row) for row in gappy.rows] == [
            ["berlin", "marathon"],
            ["hannover", "festival"],
        ]

    def test_a_ragged_row_is_refused_by_name(self, lake_directory):
        (lake_directory / "ragged.csv").write_text(
            "city,event\nberlin,marathon\nhannover,festival,extra\n",
            encoding="utf-8",
        )
        with pytest.raises(StorageError, match=r"ragged\.csv: line 3 has 3 cells"):
            DataLake.from_directory(lake_directory)

    def test_a_repeated_header_is_refused_by_name(self, lake_directory):
        (lake_directory / "twice.csv").write_text(
            "city,city,event\nberlin,berlin,marathon\n", encoding="utf-8"
        )
        with pytest.raises(StorageError, match=r"twice\.csv: .*\['city'\]"):
            DataLake.from_directory(lake_directory)

    def test_ingest_of_a_malformed_lake_writes_no_live_directory(
        self, lake_directory, tmp_path
    ):
        from repro.cli import main

        (lake_directory / "ragged.csv").write_text(
            "city,event\nberlin\n", encoding="utf-8"
        )
        live_dir = tmp_path / "live"
        with pytest.raises(StorageError, match=r"ragged\.csv"):
            main(["ingest", str(lake_directory), "--live-dir", str(live_dir)])
        assert not live_dir.exists()
