"""Precision aggregation across query sets (Table 3 / Figure 5 / Figure 6b).

The paper reports, per query set and hash function, the *mean and standard
deviation* of the per-query precision (TP / (TP + FP) of the row filter).
This module provides the small statistics containers used for that
aggregation so that every experiment reports the same ``mean ± std`` shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PrecisionSummary:
    """Mean/standard deviation of a collection of per-query precision values."""

    mean: float
    std: float
    count: int

    def __str__(self) -> str:
        return f"{self.mean:.2f}±{self.std:.2f}"


def summarize_precision(values: Sequence[float] | Iterable[float]) -> PrecisionSummary:
    """Summarise per-query precision values into mean ± population std."""
    collected = list(values)
    if not collected:
        return PrecisionSummary(mean=0.0, std=0.0, count=0)
    mean = sum(collected) / len(collected)
    variance = sum((v - mean) ** 2 for v in collected) / len(collected)
    return PrecisionSummary(mean=mean, std=math.sqrt(variance), count=len(collected))
