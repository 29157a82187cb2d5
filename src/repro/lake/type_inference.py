"""Column type inference for ingested tables.

Web-table and open-data corpora arrive without schema information: every cell
is a string.  Several parts of the system benefit from knowing what a column
*looks like*:

* the composite-key discovery extension skips measure-like (floating point)
  columns, mirroring the paper's observation that auto-generated and numeric
  columns rarely act as meaningful join keys (Section 1);
* the corpus profiler reports the type mix of a data lake, which is how the
  DESIGN.md substitution argument is validated against a user's own corpus;
* the CLI ``profile`` command prints the inferred types so a user can pick
  sensible query columns.

Inference is intentionally simple and deterministic: a column is assigned the
most specific :class:`ColumnType` that at least ``threshold`` of its
non-missing values satisfy.
"""

from __future__ import annotations

import re
from collections import Counter
from enum import Enum
from typing import Iterable

from ..datamodel import MISSING

#: Minimum fraction of non-missing values that must match a type for the
#: column to be assigned that type.
DEFAULT_TYPE_THRESHOLD: float = 0.9

_INTEGER_PATTERN = re.compile(r"^[+-]?\d+$")
_FLOAT_PATTERN = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?$")
_DATE_PATTERNS = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}$"),           # 2021-04-25
    re.compile(r"^\d{1,2}[./]\d{1,2}[./]\d{2,4}$"),   # 25.04.2021 / 4/25/21
)
_TIMESTAMP_PATTERNS = (
    re.compile(r"^\d{4}-\d{1,2}-\d{1,2}[ t]\d{1,2}:\d{2}(:\d{2})?$"),
    re.compile(r"^\d{1,2}:\d{2}(:\d{2})?$"),
)
_BOOLEAN_VALUES = frozenset({"true", "false", "yes", "no", "0", "1"})
_CODE_PATTERN = re.compile(r"^[a-z0-9]+([-_/][a-z0-9]+)+$|^[a-z]{1,4}\d{2,}$")


class ColumnType(str, Enum):
    """Inferred syntactic type of a column."""

    EMPTY = "empty"
    INTEGER = "integer"
    FLOAT = "float"
    BOOLEAN = "boolean"
    DATE = "date"
    TIMESTAMP = "timestamp"
    CODE = "code"
    TEXT = "text"
    MIXED = "mixed"


def classify_value(value: str) -> ColumnType:
    """Classify a single normalised cell value.

    >>> classify_value("42")
    <ColumnType.INTEGER: 'integer'>
    >>> classify_value("2021-04-25")
    <ColumnType.DATE: 'date'>
    >>> classify_value("muhammad")
    <ColumnType.TEXT: 'text'>
    """
    if value == MISSING:
        return ColumnType.EMPTY
    if _INTEGER_PATTERN.match(value):
        return ColumnType.INTEGER
    if _FLOAT_PATTERN.match(value):
        return ColumnType.FLOAT
    if value in _BOOLEAN_VALUES and value not in ("0", "1"):
        return ColumnType.BOOLEAN
    if any(pattern.match(value) for pattern in _DATE_PATTERNS):
        return ColumnType.DATE
    if any(pattern.match(value) for pattern in _TIMESTAMP_PATTERNS):
        return ColumnType.TIMESTAMP
    if _CODE_PATTERN.match(value):
        return ColumnType.CODE
    return ColumnType.TEXT


#: The order in which value-level types are widened when a column mixes them:
#: an integer column with a few floats is a float column; a numeric column
#: with a few text values is text; anything else is mixed.
_WIDENING: dict[frozenset, ColumnType] = {
    frozenset({ColumnType.INTEGER, ColumnType.FLOAT}): ColumnType.FLOAT,
    frozenset({ColumnType.DATE, ColumnType.TIMESTAMP}): ColumnType.TIMESTAMP,
    frozenset({ColumnType.CODE, ColumnType.TEXT}): ColumnType.TEXT,
    frozenset({ColumnType.INTEGER, ColumnType.CODE}): ColumnType.CODE,
}


def infer_column_type(
    values: Iterable[str], threshold: float = DEFAULT_TYPE_THRESHOLD
) -> ColumnType:
    """Infer the type of a column from its (normalised) values.

    A column is assigned a type when at least ``threshold`` of its non-missing
    values classify to that type; two-type mixes with a natural widening
    (integer/float, date/timestamp, code/text) take the wider type; everything
    else is :attr:`ColumnType.MIXED`.
    """
    counts: Counter[ColumnType] = Counter()
    for value in values:
        counts[classify_value(value)] += 1
    counts.pop(ColumnType.EMPTY, None)
    total = sum(counts.values())
    if total == 0:
        return ColumnType.EMPTY

    dominant, dominant_count = counts.most_common(1)[0]
    if dominant_count / total >= threshold:
        return dominant
    present = frozenset(counts)
    for combination, widened in _WIDENING.items():
        if present <= combination:
            return widened
    if present <= {ColumnType.INTEGER, ColumnType.FLOAT, ColumnType.CODE,
                   ColumnType.TEXT} and counts[ColumnType.TEXT] > 0:
        return ColumnType.TEXT
    return ColumnType.MIXED
