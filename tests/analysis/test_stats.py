"""Tests for bootstrap confidence intervals over metric histories."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    ConfidenceInterval,
    bootstrap_ci,
    difference_ci,
    metric_ci,
    series_with_ci,
    weighted_mean,
)


class TestWeightedMean:
    def test_basic(self):
        assert weighted_mean([1.0, 3.0], [1.0, 3.0]) == pytest.approx(2.5)

    def test_zero_weights(self):
        assert weighted_mean([1.0], [0.0]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            weighted_mean([1.0], [1.0, 2.0])


class TestConfidenceInterval:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(point=1.0, low=2.0, high=1.0, confidence=0.9)
        with pytest.raises(ValueError):
            ConfidenceInterval(point=1.0, low=0.0, high=2.0, confidence=1.5)

    def test_width(self):
        ci = ConfidenceInterval(point=0.5, low=0.4, high=0.7, confidence=0.95)
        assert ci.width == pytest.approx(0.3)


class TestBootstrap:
    def test_point_estimate_matches_weighted_mean(self):
        values = [0.1, 0.2, 0.3, 0.4]
        weights = [1.0, 2.0, 3.0, 4.0]
        ci = bootstrap_ci(values, weights, rng=random.Random(1))
        assert ci.point == pytest.approx(weighted_mean(values, weights))
        assert ci.low <= ci.point <= ci.high

    def test_constant_data_gives_degenerate_interval(self):
        ci = bootstrap_ci([0.5] * 10, [1.0] * 10, rng=random.Random(2))
        assert ci.low == pytest.approx(0.5)
        assert ci.high == pytest.approx(0.5)

    def test_more_data_narrows_interval(self):
        rng_values = random.Random(3)
        small = [rng_values.random() for _ in range(10)]
        large = small * 20
        ci_small = bootstrap_ci(
            small, [1.0] * len(small), rng=random.Random(4)
        )
        ci_large = bootstrap_ci(
            large, [1.0] * len(large), rng=random.Random(4)
        )
        assert ci_large.width < ci_small.width

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], [])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], [1.0], resamples=5)

    @given(
        data=st.lists(
            st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=40
        )
    )
    @settings(max_examples=30)
    def test_interval_contains_point(self, data):
        ci = bootstrap_ci(
            data, [1.0] * len(data), resamples=100, rng=random.Random(0)
        )
        assert ci.low <= ci.point <= ci.high
        assert 0.0 <= ci.low and ci.high <= 1.0


class TestHistoryIntegration:
    def test_metric_ci_on_real_history(self, ethereum_history):
        ci = metric_ci(
            ethereum_history,
            lambda r: r.metrics.single_conflict_rate,
            resamples=200,
            rng=random.Random(5),
        )
        assert 0.0 < ci.point < 1.0
        assert ci.width < 0.5

    def test_series_with_ci(self, ethereum_history):
        series = series_with_ci(
            ethereum_history,
            lambda r: r.metrics.group_conflict_rate,
            num_buckets=6,
            resamples=100,
            rng=random.Random(6),
        )
        assert len(series) == 6
        years = [year for year, _ci in series]
        assert years == sorted(years)
        for _year, ci in series:
            assert ci.low <= ci.point <= ci.high

    def test_difference_ci_certifies_ordering(
        self, ethereum_history, bitcoin_history
    ):
        """Ethereum's conflict rate is above Bitcoin's, with certainty:
        the 95% CI for the difference excludes zero (paper §IV-A)."""
        ci = difference_ci(
            ethereum_history,
            bitcoin_history,
            lambda r: r.metrics.single_conflict_rate,
            resamples=300,
            rng=random.Random(7),
        )
        assert ci.point > 0
        assert ci.low > 0  # zero excluded: the ordering is significant
