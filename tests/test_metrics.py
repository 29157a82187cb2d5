"""Tests for repro.metrics: counters and precision aggregation."""

import pytest

from repro.metrics import (
    DiscoveryCounters,
    PrecisionSummary,
    summarize_precision,
)


class TestDiscoveryCounters:
    def test_precision_empty_is_one(self):
        assert DiscoveryCounters().precision == 1.0

    def test_precision_and_fp_rate(self):
        counters = DiscoveryCounters(true_positive_rows=3, false_positive_rows=1)
        assert counters.precision == pytest.approx(0.75)
        assert counters.false_positive_rate == pytest.approx(0.25)

    def test_merge_accumulates_everything(self):
        a = DiscoveryCounters(
            pl_items_fetched=5, rows_checked=10, true_positive_rows=2,
            false_positive_rows=1, runtime_seconds=0.5, extra={"x": 1.0},
        )
        b = DiscoveryCounters(
            pl_items_fetched=7, rows_checked=3, true_positive_rows=4,
            false_positive_rows=0, runtime_seconds=0.25, extra={"x": 2.0, "y": 5.0},
        )
        a.merge(b)
        assert a.pl_items_fetched == 12
        assert a.rows_checked == 13
        assert a.true_positive_rows == 6
        assert a.runtime_seconds == pytest.approx(0.75)
        assert a.extra == {"x": 3.0, "y": 5.0}

    def test_as_dict_contains_derived_metrics(self):
        counters = DiscoveryCounters(true_positive_rows=1, false_positive_rows=1)
        payload = counters.as_dict()
        assert payload["precision"] == pytest.approx(0.5)
        assert payload["false_positive_rate"] == pytest.approx(0.5)
        assert "rows_checked" in payload


class TestPrecisionHelpers:
    def test_summarize_precision(self):
        summary = summarize_precision([1.0, 0.5, 0.0])
        assert summary.mean == pytest.approx(0.5)
        assert summary.std == pytest.approx(0.408248, rel=1e-4)
        assert summary.count == 3
        assert str(summary) == "0.50±0.41"

    def test_summarize_precision_empty(self):
        assert summarize_precision([]) == PrecisionSummary(0.0, 0.0, 0)

    def test_summarize_precision_accepts_generators(self):
        assert summarize_precision(v for v in (0.2, 0.4)).mean == pytest.approx(0.3)

