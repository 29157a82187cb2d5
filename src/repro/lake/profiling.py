"""Corpus and table profiling.

The paper's evaluation repeatedly leans on *statistical properties* of the
corpora: the number of unique values (Eq. 5's 1-bit budget), the average
number of columns per table (the bloom-filter baselines' ``V``), the
power-law distribution of posting-list lengths (which is why the cardinality
heuristic of Section 6.1 works), the distribution of cell-value lengths
(which sizes the XASH length segment, Section 5.3.2), and the character
frequency distribution (which drives the rare-character selection).

:class:`CorpusProfiler` computes all of those for an arbitrary corpus so that

* a user pointing the library at their own data lake can check whether the
  DESIGN.md substitution argument applies to it,
* :func:`corpus_character_frequencies` can replace the built-in English
  frequency table with corpus-derived frequencies (the
  ``frequency_source`` ablation experiment), and
* the Eq. 5 / bloom-filter parameters can be derived from data instead of
  being guessed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..config import CHARACTER_FREQUENCIES, DEFAULT_ALPHABET, MateConfig
from ..datamodel import MISSING, Table, TableCorpus
from .type_inference import ColumnType, infer_column_type


# ----------------------------------------------------------------------
# Per-column and per-table profiles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one column."""

    table_id: int
    column: str
    column_index: int
    column_type: ColumnType
    num_values: int
    num_missing: int
    cardinality: int
    min_length: int
    max_length: int
    mean_length: float


def profile_column(table: Table, column: str | int) -> ColumnStatistics:
    """Profile a single column of ``table``."""
    column_index = (
        column if isinstance(column, int) else table.column_index(column)
    )
    name = table.columns[column_index]
    values = table.column_values(column_index)
    non_missing = [v for v in values if v != MISSING]
    lengths = [len(v) for v in non_missing]
    return ColumnStatistics(
        table_id=table.table_id,
        column=name,
        column_index=column_index,
        column_type=infer_column_type(non_missing),
        num_values=len(values),
        num_missing=len(values) - len(non_missing),
        cardinality=len(set(non_missing)),
        min_length=min(lengths, default=0),
        max_length=max(lengths, default=0),
        mean_length=sum(lengths) / len(lengths) if lengths else 0.0,
    )


def profile_table(table: Table) -> list[ColumnStatistics]:
    """Profile every column of ``table`` (in column order)."""
    return [profile_column(table, index) for index in range(table.num_columns)]


# ----------------------------------------------------------------------
# Character frequencies (Section 5.3.2's rare-character selection)
# ----------------------------------------------------------------------
def character_frequencies_from_values(
    values: Iterable[str], alphabet: str = DEFAULT_ALPHABET
) -> dict[str, float]:
    """Relative character frequencies (in percent) over a value collection.

    Characters outside ``alphabet`` are folded onto it the same way XASH does
    (:func:`repro.hashing.xash.normalize_character`), so the frequencies line
    up with the segments the hash will use.  Alphabet characters that never
    occur receive a frequency of 0.0, which makes them maximally attractive
    as "rare" characters — exactly the right behaviour.
    """
    from ..hashing.xash import normalize_character

    counts: Counter[str] = Counter()
    total = 0
    for value in values:
        if value == MISSING:
            continue
        for character in value:
            counts[normalize_character(character, alphabet)] += 1
            total += 1
    if total == 0:
        return {character: 0.0 for character in alphabet}
    return {
        character: 100.0 * counts.get(character, 0) / total
        for character in alphabet
    }


def corpus_character_frequencies(
    corpus: TableCorpus, alphabet: str = DEFAULT_ALPHABET, sample_tables: int | None = None
) -> dict[str, float]:
    """Character frequencies measured over (a sample of) a corpus.

    ``sample_tables`` bounds the number of tables scanned (in table-id order)
    so that profiling a very large corpus stays cheap; ``None`` scans all.
    """
    def iter_values():
        for position, table in enumerate(corpus):
            if sample_tables is not None and position >= sample_tables:
                return
            for row in table.rows:
                yield from row

    return character_frequencies_from_values(iter_values(), alphabet=alphabet)


# ----------------------------------------------------------------------
# Posting-list length distribution (Section 7.5.4's power-law argument)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValueFrequencyProfile:
    """Distribution of value occurrence counts across a corpus.

    ``occurrences[i]`` is the number of times the ``i``-th most frequent value
    occurs; this is exactly the posting-list length distribution of the
    inverted index built over the corpus.
    """

    occurrences: tuple[int, ...]

    @property
    def total_occurrences(self) -> int:
        """Total number of (non-missing) cells profiled."""
        return sum(self.occurrences)

    @property
    def mean(self) -> float:
        """Mean occurrences per distinct value (the paper reports 12 for OD)."""
        if not self.occurrences:
            return 0.0
        return self.total_occurrences / len(self.occurrences)

    @property
    def max(self) -> int:
        """Occurrences of the most frequent value."""
        return self.occurrences[0] if self.occurrences else 0

    def zipf_exponent(self) -> float:
        """Least-squares slope of log(rank) vs log(occurrences).

        Values around ``-1`` indicate a classic Zipf distribution; values near
        ``0`` a flat one.  Returns 0.0 when fewer than two distinct
        occurrence counts exist.
        """
        points = [
            (math.log(rank + 1), math.log(count))
            for rank, count in enumerate(self.occurrences)
            if count > 0
        ]
        if len(points) < 2:
            return 0.0
        n = len(points)
        sum_x = sum(x for x, _ in points)
        sum_y = sum(y for _, y in points)
        sum_xy = sum(x * y for x, y in points)
        sum_xx = sum(x * x for x, _ in points)
        denominator = n * sum_xx - sum_x * sum_x
        if denominator == 0:
            return 0.0
        return (n * sum_xy - sum_x * sum_y) / denominator


def value_frequency_profile(corpus: TableCorpus) -> ValueFrequencyProfile:
    """Compute the value-occurrence distribution of a corpus."""
    counts: Counter[str] = Counter()
    for table in corpus:
        for row in table.rows:
            for value in row:
                if value != MISSING:
                    counts[value] += 1
    occurrences = tuple(sorted(counts.values(), reverse=True))
    return ValueFrequencyProfile(occurrences=occurrences)


# ----------------------------------------------------------------------
# Whole-corpus profile
# ----------------------------------------------------------------------
@dataclass
class CorpusProfile:
    """The full profile of a corpus, as produced by :class:`CorpusProfiler`."""

    corpus_name: str
    num_tables: int
    num_columns: int
    num_rows: int
    num_unique_values: int
    avg_columns_per_table: float
    avg_rows_per_table: float
    #: Count of columns per inferred type.
    column_type_counts: dict[str, int] = field(default_factory=dict)
    #: Fraction of cell values whose length fits the XASH length segment of a
    #: 128-bit hash (17 characters); the paper quotes >83% for its corpora.
    short_value_fraction: float = 0.0
    #: Character frequencies (percent) measured over the corpus.
    character_frequencies: dict[str, float] = field(default_factory=dict)
    #: Posting-list length distribution statistics.
    value_frequency: ValueFrequencyProfile = field(
        default_factory=lambda: ValueFrequencyProfile(occurrences=())
    )

    def recommended_config(
        self, hash_size: int = 128, k: int = 10, use_corpus_frequencies: bool = True
    ) -> MateConfig:
        """Derive a :class:`MateConfig` from the measured corpus statistics.

        The Eq. 5 bit budget is computed from the measured number of unique
        values and, optionally, the rare-character table from the measured
        character frequencies.
        """
        frequencies = (
            dict(self.character_frequencies)
            if use_corpus_frequencies and self.character_frequencies
            else dict(CHARACTER_FREQUENCIES)
        )
        return MateConfig(
            hash_size=hash_size,
            k=k,
            expected_unique_values=max(self.num_unique_values, 1),
            character_frequencies=frequencies,
        )

    def as_dict(self) -> dict[str, object]:
        """Return the headline numbers as a plain dictionary (for reporting)."""
        return {
            "corpus": self.corpus_name,
            "tables": self.num_tables,
            "columns": self.num_columns,
            "rows": self.num_rows,
            "unique_values": self.num_unique_values,
            "avg_columns_per_table": round(self.avg_columns_per_table, 2),
            "avg_rows_per_table": round(self.avg_rows_per_table, 2),
            "short_value_fraction": round(self.short_value_fraction, 3),
            "column_types": dict(self.column_type_counts),
            "pl_length_mean": round(self.value_frequency.mean, 2),
            "pl_length_max": self.value_frequency.max,
            "pl_zipf_exponent": round(self.value_frequency.zipf_exponent(), 3),
        }


class CorpusProfiler:
    """Computes a :class:`CorpusProfile` for a corpus.

    Parameters
    ----------
    alphabet:
        Alphabet for the character-frequency measurement (defaults to the
        37-character XASH alphabet).
    length_segment_bits:
        Length-segment width used for the ``short_value_fraction`` statistic
        (17 bits, i.e. the 128-bit layout, by default).
    sample_tables:
        Optional cap on the number of tables scanned for the character
        frequency measurement.
    """

    def __init__(
        self,
        alphabet: str = DEFAULT_ALPHABET,
        length_segment_bits: int = 17,
        sample_tables: int | None = None,
    ):
        self.alphabet = alphabet
        self.length_segment_bits = length_segment_bits
        self.sample_tables = sample_tables

    def profile(self, corpus: TableCorpus) -> CorpusProfile:
        """Profile ``corpus`` and return the aggregated results."""
        statistics = corpus.statistics()
        type_counts: Counter[str] = Counter()
        short_values = 0
        total_values = 0
        for table in corpus:
            for column_statistics in profile_table(table):
                type_counts[column_statistics.column_type.value] += 1
            for row in table.rows:
                for value in row:
                    if value == MISSING:
                        continue
                    total_values += 1
                    if len(value) <= self.length_segment_bits:
                        short_values += 1
        return CorpusProfile(
            corpus_name=corpus.name,
            num_tables=statistics.num_tables,
            num_columns=statistics.num_columns,
            num_rows=statistics.num_rows,
            num_unique_values=statistics.num_unique_values,
            avg_columns_per_table=statistics.avg_columns_per_table,
            avg_rows_per_table=statistics.avg_rows_per_table,
            column_type_counts=dict(type_counts),
            short_value_fraction=(
                short_values / total_values if total_values else 0.0
            ),
            character_frequencies=corpus_character_frequencies(
                corpus, alphabet=self.alphabet, sample_tables=self.sample_tables
            ),
            value_frequency=value_frequency_profile(corpus),
        )


def profile_corpus(corpus: TableCorpus, **kwargs: object) -> CorpusProfile:
    """Convenience wrapper: profile a corpus with default profiler settings."""
    return CorpusProfiler(**kwargs).profile(corpus)  # type: ignore[arg-type]
