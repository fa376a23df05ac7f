"""Tests for block concurrency metrics, incl. property-based invariants."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics import BlockMetrics, compute_block_metrics
from repro.core.tdg import TDGResult


def _tdg(*groups: tuple[str, ...]) -> TDGResult:
    return TDGResult(
        groups=tuple(groups),
        num_transactions=sum(len(g) for g in groups),
    )


class TestUnweightedMetrics:
    def test_fig_1a_rates(self):
        """Paper Fig. 1a: 5 txs, one pair conflicted -> 40% / 40%."""
        tdg = _tdg(("t0",), ("t1",), ("t2",), ("t3", "t4"))
        metrics = compute_block_metrics(tdg)
        assert metrics.single_conflict_rate == pytest.approx(0.4)
        assert metrics.group_conflict_rate == pytest.approx(0.4)

    def test_no_conflicts(self):
        metrics = compute_block_metrics(_tdg(("a",), ("b",)))
        assert metrics.single_conflict_rate == 0.0
        assert metrics.group_conflict_rate == 0.5  # 1/x floor
        assert metrics.is_fully_concurrent

    def test_fully_sequential_block(self):
        """The Bitcoin block 358624 case: nearly everything dependent."""
        tdg = _tdg(tuple(f"t{i}" for i in range(10)))
        metrics = compute_block_metrics(tdg)
        assert metrics.single_conflict_rate == 1.0
        assert metrics.group_conflict_rate == 1.0

    def test_empty_block(self):
        metrics = compute_block_metrics(_tdg())
        assert metrics.single_conflict_rate == 0.0
        assert metrics.group_conflict_rate == 0.0

    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            BlockMetrics(
                num_transactions=2,
                num_conflicted=3,
                lcc_size=1,
                total_weight=2,
                conflicted_weight=0,
                lcc_weight=1,
            )
        with pytest.raises(ValueError):
            BlockMetrics(
                num_transactions=2,
                num_conflicted=2,
                lcc_size=3,
                total_weight=2,
                conflicted_weight=2,
                lcc_weight=2,
            )


class TestWeightedMetrics:
    def test_gas_weighting_shifts_rates(self):
        """Heavy unconflicted tx pulls the weighted rate below the plain."""
        tdg = _tdg(("cheap1", "cheap2"), ("expensive",))
        weights = {"cheap1": 1.0, "cheap2": 1.0, "expensive": 8.0}
        metrics = compute_block_metrics(tdg, weights=weights)
        assert metrics.single_conflict_rate == pytest.approx(2 / 3)
        assert metrics.weighted_single_conflict_rate == pytest.approx(0.2)

    def test_weighted_group_rate_uses_heaviest_group(self):
        tdg = _tdg(("a", "b"), ("c",))
        weights = {"a": 1.0, "b": 1.0, "c": 10.0}
        metrics = compute_block_metrics(tdg, weights=weights)
        # By count the LCC is {a,b}; by weight it is {c}.
        assert metrics.lcc_size == 2
        assert metrics.weighted_group_conflict_rate == pytest.approx(10 / 12)

    def test_missing_weights_default_to_one(self):
        tdg = _tdg(("a", "b"))
        metrics = compute_block_metrics(tdg, weights={"a": 3.0})
        assert metrics.total_weight == pytest.approx(4.0)

    def test_unit_weights_reduce_to_unweighted(self):
        tdg = _tdg(("a", "b"), ("c",), ("d", "e", "f"))
        plain = compute_block_metrics(tdg)
        unit = compute_block_metrics(
            tdg, weights={h: 1.0 for g in tdg.groups for h in g}
        )
        assert plain.weighted_single_conflict_rate == pytest.approx(
            unit.single_conflict_rate
        )
        assert plain.weighted_group_conflict_rate == pytest.approx(
            unit.group_conflict_rate
        )


# -- property-based invariants -----------------------------------------------

group_sizes = st.lists(st.integers(min_value=1, max_value=12), min_size=1,
                       max_size=15)


def _tdg_from_sizes(sizes: list[int]) -> TDGResult:
    groups = []
    counter = 0
    for size in sizes:
        groups.append(tuple(f"t{counter + i}" for i in range(size)))
        counter += size
    return TDGResult(groups=tuple(groups), num_transactions=counter)


@settings(max_examples=200)
@given(sizes=group_sizes)
def test_group_rate_never_exceeds_single_rate_when_conflicted(sizes):
    """§IV-B: LCC txs are all conflicted, so group <= single if any conflict."""
    metrics = compute_block_metrics(_tdg_from_sizes(sizes))
    if metrics.num_conflicted > 0:
        assert metrics.group_conflict_rate <= metrics.single_conflict_rate


@settings(max_examples=200)
@given(sizes=group_sizes)
def test_rates_are_valid_probabilities(sizes):
    metrics = compute_block_metrics(_tdg_from_sizes(sizes))
    assert 0.0 <= metrics.single_conflict_rate <= 1.0
    assert 0.0 < metrics.group_conflict_rate <= 1.0


@settings(max_examples=100)
@given(
    sizes=group_sizes,
    weights=st.lists(
        st.floats(min_value=0.1, max_value=100.0), min_size=40, max_size=40
    ),
)
def test_weighted_rates_are_valid_probabilities(sizes, weights):
    tdg = _tdg_from_sizes(sizes)
    weight_map = {
        h: weights[i % len(weights)]
        for i, h in enumerate(h for g in tdg.groups for h in g)
    }
    metrics = compute_block_metrics(tdg, weights=weight_map)
    assert 0.0 <= metrics.weighted_single_conflict_rate <= 1.0 + 1e-12
    assert 0.0 <= metrics.weighted_group_conflict_rate <= 1.0 + 1e-12


@settings(max_examples=200)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=12), max_size=15),
    weights=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e6)),
        min_size=1, max_size=40,
    ),
    weighted=st.booleans(),
)
def test_counts_are_the_tdg_properties(sizes, weights, weighted):
    """The counts folded into the metrics loop are the TDG's own
    properties, and every weight is the group-by-group sum, left to right
    (a transaction without a weight counts 1.0)."""
    tdg = _tdg_from_sizes(sizes)
    weight_map = None
    if weighted:
        members = [h for group in tdg.groups for h in group]
        weight_map = {
            h: weights[i % len(weights)]
            for i, h in enumerate(members)
            if weights[i % len(weights)] is not None
        }
    metrics = compute_block_metrics(tdg, weights=weight_map)
    assert metrics.num_transactions == tdg.num_transactions
    assert metrics.num_conflicted == tdg.num_conflicted
    assert metrics.lcc_size == tdg.lcc_size

    group_weights = [
        sum([
            1.0 if weight_map is None else float(weight_map.get(h, 1.0))
            for h in group
        ])
        for group in tdg.groups
    ]
    total = conflicted = 0.0
    for group, weight in zip(tdg.groups, group_weights):
        total += weight
        if len(group) > 1:
            conflicted += weight
    assert metrics.total_weight == total
    assert metrics.conflicted_weight == conflicted
    assert metrics.lcc_weight == max(group_weights, default=0.0)
