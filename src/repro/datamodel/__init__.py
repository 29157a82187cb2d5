"""Relational data model: tables, rows, query tables, and corpora."""

from .corpus import CorpusStatistics, TableCorpus
from .table import (
    MISSING,
    QueryTable,
    Row,
    Table,
    normalize_value,
)

__all__ = [
    "MISSING",
    "CorpusStatistics",
    "QueryTable",
    "Row",
    "Table",
    "TableCorpus",
    "normalize_value",
]
