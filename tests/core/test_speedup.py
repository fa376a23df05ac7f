"""Tests for the analytical speed-up models against the paper's numbers."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import compute_block_metrics
from repro.core.speedup import (
    estimate_block_speedups,
    group_speedup_bound,
    group_speedup_with_overhead,
    informed_speedup,
    informed_time,
    speculative_speedup,
    speculative_speedup_exact,
    speculative_time,
    speculative_time_exact,
)
from repro.core.tdg import TDGResult


class TestEquationOne:
    def test_formula_matches_paper(self):
        """T' = floor(x/n) + 1 + c*x (Eq. 1's denominator)."""
        assert speculative_time(100, 8, 0.5) == math.floor(100 / 8) + 1 + 50

    def test_speedup_is_ratio(self):
        x, n, c = 100, 8, 0.2
        assert speculative_speedup(x, n, c) == pytest.approx(
            x / speculative_time(x, n, c)
        )

    def test_zero_conflict_many_cores_near_n(self):
        assert speculative_speedup(1000, 8, 0.0) == pytest.approx(
            1000 / (125 + 1)
        )

    def test_high_conflict_can_be_slower_than_sequential(self):
        """Fig. 10a: some speed-ups fall below 1x."""
        assert speculative_speedup(16, 4, 0.875) < 1.0

    def test_empty_block(self):
        assert speculative_speedup(0, 8, 0.0) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            speculative_speedup(10, 0, 0.5)
        with pytest.raises(ValueError):
            speculative_speedup(10, 4, 1.5)
        with pytest.raises(ValueError):
            speculative_speedup(-1, 4, 0.5)


class TestPaperWorkedExamples:
    """§V-A works the two Fig. 1 blocks through the model."""

    def test_block_1000007_speedup_5_over_3(self):
        # 5 txs, c = 0.4, n >= 5: phase one 1 unit, phase two 2 units.
        assert speculative_time_exact(5, 5, 0.4) == 3
        assert speculative_speedup_exact(5, 5, 0.4) == pytest.approx(5 / 3)

    def test_block_1000124_speedup_16_over_15(self):
        # 16 txs, c = 0.875, n >= 16: 1 + 14 = 15 units.
        assert speculative_time_exact(16, 16, 0.875) == 15
        assert speculative_speedup_exact(16, 16, 0.875) == pytest.approx(
            16 / 15
        )

    def test_block_1000124_8_to_15_cores_speedup_one(self):
        # "If between 8 and 15 cores are used, then the first phase takes
        # 2 units" -> 2 + 14 = 16 units, speed-up exactly 1.
        for cores in (8, 12, 15):
            assert speculative_speedup_exact(16, cores, 0.875) == pytest.approx(
                1.0
            )

    def test_block_1000124_fewer_cores_slower_than_sequential(self):
        assert speculative_speedup_exact(16, 4, 0.875) < 1.0


class TestInformedVariant:
    def test_informed_beats_speculative_at_high_conflict(self):
        x, n, c = 100, 8, 0.8
        assert informed_speedup(x, n, c, 0.0) > speculative_speedup(x, n, c)

    def test_preprocessing_cost_reduces_gain(self):
        x, n, c = 100, 8, 0.5
        assert informed_speedup(x, n, c, 20.0) < informed_speedup(x, n, c, 0.0)

    def test_time_formula(self):
        x, n, c, k = 100, 8, 0.5, 3.0
        expected = k + math.floor((1 - c) * x / n) + 1 + c * x
        assert informed_time(x, n, c, k) == pytest.approx(expected)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            informed_time(10, 4, 0.5, -1.0)


class TestEquationTwo:
    def test_bound_is_min_of_cores_and_inverse_l(self):
        assert group_speedup_bound(8, 0.5) == 2.0
        assert group_speedup_bound(8, 0.05) == 8.0

    def test_paper_headline_six_x(self):
        """~20% group conflict + 8 cores ==> ~5-6x (the paper's 6x claim)."""
        speedup = group_speedup_bound(8, 0.17)
        assert 5.0 <= speedup <= 6.5

    def test_64_cores_8x(self):
        """Fig. 10b: 64 cores with l=0.125 reaches 8x."""
        assert group_speedup_bound(64, 0.125) == pytest.approx(8.0)

    def test_zero_l_returns_core_count(self):
        assert group_speedup_bound(16, 0.0) == 16.0

    def test_overhead_corrected_variant(self):
        x, n, l, k = 100, 8, 0.2, 5.0
        expected = min(x / (x / n + k), x / (l * x + k))
        assert group_speedup_with_overhead(x, n, l, k) == pytest.approx(
            expected
        )

    def test_overhead_negligible_when_small(self):
        """§V-B: the K correction vanishes for K << x."""
        bound = group_speedup_bound(8, 0.2)
        corrected = group_speedup_with_overhead(10_000, 8, 0.2, 1.0)
        assert corrected == pytest.approx(bound, rel=0.01)


class TestEstimateBlockSpeedups:
    def _metrics(self):
        tdg = TDGResult.from_groups((("a", "b", "c"), ("d",), ("e",), ("f",)))
        return compute_block_metrics(tdg)

    def test_estimates_are_consistent(self):
        metrics = self._metrics()
        estimate = estimate_block_speedups(metrics, cores=8)
        assert estimate.speculative == pytest.approx(
            speculative_speedup(6, 8, 0.5)
        )
        assert estimate.group_bound == pytest.approx(
            group_speedup_bound(8, 0.5)
        )
        assert estimate.best >= estimate.speculative

    def test_weighted_variant_used_when_requested(self):
        tdg = TDGResult.from_groups((("a", "b"), ("c",)))
        metrics = compute_block_metrics(tdg, weights={"c": 8.0})
        weighted = estimate_block_speedups(metrics, cores=4, weighted=True)
        plain = estimate_block_speedups(metrics, cores=4, weighted=False)
        assert weighted.group_bound != plain.group_bound


# -- property-based model sanity ----------------------------------------------


@settings(max_examples=200)
@given(
    x=st.integers(min_value=1, max_value=5000),
    n=st.integers(min_value=1, max_value=128),
    c=st.floats(min_value=0.0, max_value=1.0),
)
def test_more_cores_never_hurt_eq1(x, n, c):
    assert speculative_speedup(x, n + 1, c) >= speculative_speedup(x, n, c) - 1e-12


@settings(max_examples=200)
@given(
    n=st.integers(min_value=1, max_value=128),
    l=st.floats(min_value=0.001, max_value=1.0),
)
def test_eq2_bounded_by_both_limits(n, l):
    bound = group_speedup_bound(n, l)
    assert bound <= n + 1e-12
    assert bound <= 1.0 / l + 1e-9


@settings(max_examples=200)
@given(
    x=st.integers(min_value=1, max_value=2000),
    n=st.integers(min_value=1, max_value=64),
    c=st.floats(min_value=0.0, max_value=1.0),
)
def test_informed_never_slower_than_speculative_without_k(x, n, c):
    """With K=0, skipping the double execution can only help."""
    assert informed_time(x, n, c, 0.0) <= speculative_time(x, n, c) + 1e-9
