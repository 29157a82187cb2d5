"""A directory-backed data lake facade.

:class:`DataLake` is the highest-level entry point for users who want to run
MATE on their own files instead of on the synthetic corpora: point it at a
directory of CSV files, and it gives back an indexed, queryable corpus:

>>> lake = DataLake.from_directory("my_tables/")  # doctest: +SKIP
>>> orders = lake.table_by_source("orders")  # doctest: +SKIP
>>> query = QueryTable(orders, ["customer", "date"])  # doctest: +SKIP
>>> result = lake.discover(query, k=5)  # doctest: +SKIP

The facade deliberately stays thin: ingestion delegates to
:mod:`repro.storage.serialization`, profiling to :mod:`repro.lake.profiling`,
and discovery to :class:`repro.core.MateDiscovery`.  Its value is wiring
those pieces together with sensible defaults (corpus-derived configuration,
lazily built and cached index) and a small amount of bookkeeping (file-name
to table-id mapping).
The index lives in memory; ``repro ingest DIR --live-dir LIVE`` streams the
same directory into a live-index directory, the one persisted format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..config import MateConfig
from ..core import DiscoveryResult, MateDiscovery
from ..datamodel import QueryTable, Table, TableCorpus
from ..exceptions import CorpusError, StorageError
from ..index import IndexBuilder, InvertedIndex
from ..storage import table_from_csv
from .profiling import CorpusProfile, CorpusProfiler


#: File suffixes the directory scan recognises.
CSV_SUFFIXES: tuple[str, ...] = (".csv",)
#: Suffixes of the DWTC JSON-lines format, whose loader was removed: a
#: directory holding one is refused rather than read with tables missing.
REMOVED_JSON_SUFFIXES: tuple[str, ...] = (".json", ".jsonl", ".ndjson")


@dataclass
class DataLake:
    """A corpus of user tables plus a lazily built MATE index."""

    corpus: TableCorpus
    config: MateConfig | None = None
    hash_function_name: str = "xash"
    #: Maps the source file stem (or path) of each ingested table to its id.
    sources: dict[str, int] = field(default_factory=dict)
    _index: InvertedIndex | None = field(default=None, repr=False)
    _profile: CorpusProfile | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_directory(
        cls,
        directory: str | Path,
        name: str | None = None,
        recursive: bool = False,
        max_tables: int | None = None,
        config: MateConfig | None = None,
        hash_function_name: str = "xash",
    ) -> "DataLake":
        """Build a data lake from every CSV file in a directory.

        Each CSV file becomes one table.  Files that cannot be parsed, and
        files in the removed DWTC JSON-lines format, raise
        :class:`StorageError` — a data lake with silently missing tables is
        worse than a loud failure.  Files with any other suffix are skipped.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise StorageError(f"not a directory: {directory}")
        corpus = TableCorpus(name=name or directory.name)
        sources: dict[str, int] = {}
        pattern = "**/*" if recursive else "*"
        paths = sorted(p for p in directory.glob(pattern) if p.is_file())
        for path in paths:
            if max_tables is not None and len(corpus) >= max_tables:
                break
            suffix = path.suffix.lower()
            if suffix in CSV_SUFFIXES:
                table = table_from_csv(corpus.next_table_id(), path)
                corpus.add_table(table)
                sources[path.stem] = table.table_id
            elif suffix in REMOVED_JSON_SUFFIXES:
                raise StorageError(
                    f"{path}: the DWTC JSON-lines table format is no longer "
                    "supported; convert each table to a CSV file"
                )
        return cls(
            corpus=corpus,
            config=config,
            hash_function_name=hash_function_name,
            sources=sources,
        )

    # ------------------------------------------------------------------
    # Derived resources (profile, configuration, index)
    # ------------------------------------------------------------------
    def profile(self) -> CorpusProfile:
        """Return (computing and caching on first use) the corpus profile."""
        if self._profile is None:
            self._profile = CorpusProfiler().profile(self.corpus)
        return self._profile

    def effective_config(self) -> MateConfig:
        """The configuration used for indexing and discovery.

        When no explicit configuration was provided, one is derived from the
        corpus profile (measured unique-value count and character
        frequencies), which is the recommended setup for user data lakes.
        """
        if self.config is None:
            self.config = self.profile().recommended_config()
        return self.config

    def index(self, rebuild: bool = False) -> InvertedIndex:
        """Return (building and caching on first use) the extended index."""
        if self._index is None or rebuild:
            builder = IndexBuilder(
                config=self.effective_config(),
                hash_function_name=self.hash_function_name,
            )
            self._index = builder.build(self.corpus)
        return self._index

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def table_by_source(self, source: str) -> Table:
        """Return the table ingested from file stem ``source``."""
        try:
            return self.corpus.get_table(self.sources[source])
        except KeyError as exc:
            raise CorpusError(
                f"no table was ingested from source {source!r}; "
                f"known sources: {sorted(self.sources)}"
            ) from exc

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------
    def discover(self, query: QueryTable, k: int = 10) -> DiscoveryResult:
        """Find the top-k tables of the lake joinable with ``query``."""
        config = self.effective_config().with_k(k)
        engine = MateDiscovery(
            self.corpus,
            self.index(),
            config=config,
            hash_function_name=self.hash_function_name,
        )
        return engine.discover(query, k=k)

    def __len__(self) -> int:
        return len(self.corpus)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DataLake(corpus={self.corpus.name!r}, tables={len(self.corpus)}, "
            f"hash={self.hash_function_name!r})"
        )
