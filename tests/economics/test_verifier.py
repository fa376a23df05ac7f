"""Tests for the Verifier's Dilemma model (§II-C)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.economics.verifier import (
    VerifierParams,
    expected_reward_skipper,
    expected_reward_verifier,
    invalid_block_survival,
    security_gain_from_speedup,
    verification_equilibrium,
)


def _params(execution=2.0, interval=600.0, invalid=0.01, penalty=0.0):
    return VerifierParams(
        execution_time=execution,
        block_interval=interval,
        invalid_rate=invalid,
        penalty=penalty,
    )


class TestParams:
    def test_cost_share(self):
        assert _params(execution=60, interval=600).verification_cost_share \
            == pytest.approx(0.1)

    def test_cost_share_capped_at_one(self):
        assert _params(execution=1200, interval=600).verification_cost_share \
            == 1.0

    def test_with_speedup_divides_execution_time(self):
        faster = _params(execution=60).with_speedup(6.0)
        assert faster.execution_time == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            _params(execution=-1)
        with pytest.raises(ValueError):
            _params(interval=0)
        with pytest.raises(ValueError):
            _params(invalid=1.5)
        with pytest.raises(ValueError):
            _params().with_speedup(0)


class TestRewards:
    def test_verifier_pays_the_cost(self):
        params = _params(execution=60, interval=600)
        assert expected_reward_verifier(params) == pytest.approx(0.9)

    def test_skipper_rides_free_when_everyone_verifies(self):
        params = _params(execution=60, interval=600)
        assert expected_reward_skipper(params, 1.0) == pytest.approx(1.0)

    def test_skipper_exposed_when_nobody_verifies(self):
        params = _params(invalid=0.2)
        assert expected_reward_skipper(params, 0.0) == pytest.approx(0.8)

    def test_penalty_hurts_skippers(self):
        cheap = expected_reward_skipper(_params(invalid=0.2), 0.0)
        harsh = expected_reward_skipper(
            _params(invalid=0.2, penalty=1.0), 0.0
        )
        assert harsh < cheap


class TestEquilibrium:
    def test_free_verification_means_everyone_verifies(self):
        params = _params(execution=0.0)
        assert verification_equilibrium(params) == 1.0

    def test_expensive_verification_collapses(self):
        """The dilemma: verification costlier than the exposure -> v=0."""
        params = _params(execution=300, interval=600, invalid=0.01)
        assert verification_equilibrium(params) == 0.0

    def test_interior_equilibrium(self):
        params = _params(execution=6, interval=600, invalid=0.02)
        v = verification_equilibrium(params)
        assert 0.0 < v < 1.0
        # At equilibrium, verifying and skipping pay the same.
        assert expected_reward_verifier(params) == pytest.approx(
            expected_reward_skipper(params, v)
        )

    def test_cheaper_execution_raises_equilibrium(self):
        expensive = verification_equilibrium(
            _params(execution=10, interval=600, invalid=0.02)
        )
        cheap = verification_equilibrium(
            _params(execution=2, interval=600, invalid=0.02)
        )
        assert cheap > expensive


class TestSecurityGain:
    def test_speedup_raises_verifying_fraction(self):
        """§II-C's argument end to end: 6x faster execution -> more
        verifiers -> fewer surviving invalid blocks."""
        params = _params(execution=8, interval=600, invalid=0.02)
        gain = security_gain_from_speedup(params, speedup=6.0)
        assert gain.improved_fraction > gain.baseline_fraction
        before = invalid_block_survival(params, gain.baseline_fraction)
        after = invalid_block_survival(params, gain.improved_fraction)
        assert after < before

    def test_speedup_of_one_changes_nothing(self):
        params = _params(execution=8, interval=600, invalid=0.02)
        gain = security_gain_from_speedup(params, speedup=1.0)
        assert gain.improved_fraction == pytest.approx(gain.baseline_fraction)


@settings(max_examples=200)
@given(
    execution=st.floats(min_value=0.0, max_value=600.0),
    invalid=st.floats(min_value=0.001, max_value=0.5),
    speedup=st.floats(min_value=1.0, max_value=64.0),
)
def test_speedups_never_reduce_security(execution, invalid, speedup):
    """Property: the §II-C argument is monotone in R."""
    params = VerifierParams(
        execution_time=execution,
        block_interval=600.0,
        invalid_rate=invalid,
    )
    gain = security_gain_from_speedup(params, speedup)
    assert gain.improved_fraction >= gain.baseline_fraction - 1e-12
    assert 0.0 <= gain.baseline_fraction <= 1.0
    assert 0.0 <= gain.improved_fraction <= 1.0
