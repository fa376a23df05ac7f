"""Tests for multiprocessor scheduling of dependency groups (§V-B)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling import (
    list_schedule,
    lpt_schedule,
    makespan_lower_bound,
    optimal_makespan,
    scheduled_speedup,
)

job_lists = st.lists(
    st.floats(min_value=0.0, max_value=50.0), min_size=0, max_size=14
)
core_counts = st.integers(min_value=1, max_value=8)


class TestLowerBound:
    def test_critical_path_dominates(self):
        assert makespan_lower_bound([10, 1, 1], 4) == 10

    def test_total_work_dominates(self):
        assert makespan_lower_bound([3, 3, 3, 3], 2) == 6

    def test_empty(self):
        assert makespan_lower_bound([], 4) == 0.0


class TestSchedulers:
    def test_list_schedule_assigns_all_jobs(self):
        schedule = list_schedule([5, 3, 2, 2], 2)
        assigned = sorted(
            index for core in schedule.assignments for index in core
        )
        assert assigned == [0, 1, 2, 3]

    def test_lpt_beats_or_ties_bad_list_order(self):
        # Adversarial order for greedy: small jobs first.
        sizes = [1, 1, 1, 1, 8]
        greedy = list_schedule(sizes, 2).makespan
        lpt = lpt_schedule(sizes, 2).makespan
        assert lpt <= greedy

    def test_lpt_preserves_job_identity(self):
        sizes = [2, 9, 4]
        schedule = lpt_schedule(sizes, 2)
        loads = [
            sum(sizes[job] for job in jobs) for jobs in schedule.assignments
        ]
        assert sum(loads) == pytest.approx(sum(sizes))
        assert max(loads) == schedule.makespan

    def test_single_core_makespan_is_total(self):
        sizes = [4, 2, 6]
        assert list_schedule(sizes, 1).makespan == 12

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            list_schedule([-1], 2)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            lpt_schedule([1], 0)


class TestOptimal:
    def test_small_instance_exact(self):
        # Optimal is 9 (5+4 / 6+3), LPT gets it here too.
        assert optimal_makespan([6, 5, 4, 3], 2) == 9

    def test_exact_beats_greedy_counterexample(self):
        # Classic LPT-suboptimal instance.
        sizes = [3, 3, 2, 2, 2]
        assert optimal_makespan(sizes, 2) == 6
        assert lpt_schedule(sizes, 2).makespan >= 6

    def test_job_limit_enforced(self):
        with pytest.raises(ValueError):
            optimal_makespan([1.0] * 20, 2)


class TestScheduledSpeedup:
    def test_infinite_like_cores_reach_inverse_l(self):
        """With cores >= #groups, speed-up = total / largest (the 1/l bound)."""
        sizes = [10, 5, 5]
        speedup = scheduled_speedup(sizes, 16, policy="lpt")
        assert speedup == pytest.approx(20 / 10)

    def test_overhead_reduces_speedup(self):
        sizes = [4, 4, 4, 4]
        free = scheduled_speedup(sizes, 4)
        taxed = scheduled_speedup(sizes, 4, overhead=2.0)
        assert taxed < free

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            scheduled_speedup([1], 2, policy="magic")

    def test_empty_block(self):
        assert scheduled_speedup([], 4) == 1.0


# -- property-based certification of the heuristics --------------------------


@settings(max_examples=200)
@given(sizes=job_lists, cores=core_counts)
def test_schedulers_respect_lower_bound(sizes, cores):
    lower = makespan_lower_bound(sizes, cores)
    assert list_schedule(sizes, cores).makespan >= lower - 1e-9
    assert lpt_schedule(sizes, cores).makespan >= lower - 1e-9


@settings(max_examples=100, deadline=None)
@given(sizes=job_lists, cores=core_counts)
def test_lpt_within_four_thirds_of_optimal(sizes, cores):
    """Graham's bound: LPT <= (4/3 - 1/(3m)) * OPT."""
    optimal = optimal_makespan(sizes, cores)
    lpt = lpt_schedule(sizes, cores).makespan
    bound = (4.0 / 3.0 - 1.0 / (3.0 * cores)) * optimal
    assert lpt <= bound + 1e-6


@settings(max_examples=100, deadline=None)
@given(sizes=job_lists, cores=core_counts)
def test_greedy_within_graham_bound(sizes, cores):
    """List scheduling <= (2 - 1/m) * OPT."""
    optimal = optimal_makespan(sizes, cores)
    greedy = list_schedule(sizes, cores).makespan
    assert greedy <= (2.0 - 1.0 / cores) * optimal + 1e-6


@settings(max_examples=100, deadline=None)
@given(sizes=job_lists, cores=core_counts)
def test_speedup_never_exceeds_eq2_bound(sizes, cores):
    """Realised scheduling never beats the paper's min(n, 1/l) bound."""
    total = sum(sizes)
    if total <= 0:
        return
    largest = max(sizes)
    speedup = scheduled_speedup(sizes, cores, policy="lpt")
    if largest > 0:
        assert speedup <= min(cores, total / largest) + 1e-9
    else:
        assert speedup <= cores + 1e-9
