"""Data-lake ingestion, profiling, and type inference.

This package is the bridge between a user's own files and the MATE machinery:

* :mod:`repro.lake.data_lake` — the :class:`DataLake` facade (directory of
  CSV files -> indexed, queryable corpus);
* :mod:`repro.lake.type_inference` — syntactic column types;
* :mod:`repro.lake.profiling` — corpus statistics (unique values, character
  frequencies, posting-list length distribution) that feed Eq. 5, the rare
  character table, and the substitution argument of DESIGN.md.
"""

from .data_lake import DataLake
from .profiling import (
    ColumnStatistics,
    CorpusProfile,
    CorpusProfiler,
    ValueFrequencyProfile,
    character_frequencies_from_values,
    corpus_character_frequencies,
    profile_column,
    profile_corpus,
    profile_table,
    value_frequency_profile,
)
from .type_inference import (
    ColumnType,
    classify_value,
    infer_column_type,
)

__all__ = [
    "ColumnStatistics",
    "ColumnType",
    "CorpusProfile",
    "CorpusProfiler",
    "DataLake",
    "ValueFrequencyProfile",
    "character_frequencies_from_values",
    "classify_value",
    "corpus_character_frequencies",
    "infer_column_type",
    "profile_column",
    "profile_corpus",
    "profile_table",
    "value_frequency_profile",
]
