"""Tests for the mempool: admission, RBF, eviction, packing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mempool.pool import AdmissionError, Mempool, MempoolError, PoolEntry


def _entry(name, fee=100, weight=10, replacement_key=""):
    return PoolEntry(
        tx_hash=name, fee=fee, weight=weight,
        replacement_key=replacement_key,
    )


class TestPoolEntry:
    def test_fee_rate(self):
        assert _entry("a", fee=50, weight=10).fee_rate == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _entry("", fee=1)
        with pytest.raises(ValueError):
            _entry("a", fee=-1)
        with pytest.raises(ValueError):
            _entry("a", weight=0)


class TestAdmission:
    def test_submit_and_contains(self):
        pool = Mempool(min_fee_rate=1.0)
        pool.submit(_entry("a"))
        assert "a" in pool
        assert len(pool) == 1

    def test_duplicate_rejected(self):
        pool = Mempool()
        pool.submit(_entry("a"))
        with pytest.raises(AdmissionError):
            pool.submit(_entry("a"))

    def test_fee_floor(self):
        pool = Mempool(min_fee_rate=5.0)
        with pytest.raises(AdmissionError):
            pool.submit(_entry("cheap", fee=10, weight=10))  # rate 1.0
        pool.submit(_entry("rich", fee=100, weight=10))      # rate 10.0

    def test_replace_by_fee(self):
        pool = Mempool(replacement_factor=1.5)
        pool.submit(_entry("old", fee=100, replacement_key="alice:0"))
        with pytest.raises(AdmissionError):
            pool.submit(
                _entry("lowball", fee=120, replacement_key="alice:0")
            )
        pool.submit(_entry("bump", fee=200, replacement_key="alice:0"))
        assert "old" not in pool
        assert "bump" in pool
        assert len(pool) == 1

    def test_different_replacement_keys_coexist(self):
        pool = Mempool()
        pool.submit(_entry("a", replacement_key="alice:0"))
        pool.submit(_entry("b", replacement_key="alice:1"))
        assert len(pool) == 2


class TestEviction:
    def test_cheapest_evicted_first(self):
        pool = Mempool(max_weight=30, min_fee_rate=0.1)
        pool.submit(_entry("cheap", fee=10, weight=10))    # rate 1
        pool.submit(_entry("mid", fee=50, weight=10))      # rate 5
        pool.submit(_entry("rich", fee=100, weight=10))    # rate 10
        pool.submit(_entry("richer", fee=200, weight=10))  # rate 20
        assert pool.total_weight <= 30
        assert "cheap" not in pool
        assert "richer" in pool

    def test_capacity_invariant(self):
        pool = Mempool(max_weight=100, min_fee_rate=0.0)
        for index in range(50):
            pool.submit(_entry(f"t{index}", fee=index + 1, weight=7))
        assert pool.total_weight <= 100


class TestPacking:
    def test_greedy_by_fee_rate(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("low", fee=10, weight=10))
        pool.submit(_entry("high", fee=100, weight=10))
        pool.submit(_entry("mid", fee=50, weight=10))
        block = pool.pack_block(weight_budget=20)
        assert [entry.tx_hash for entry in block] == ["high", "mid"]
        assert "low" in pool  # left behind
        assert "high" not in pool  # removed on inclusion

    def test_skips_entries_that_do_not_fit(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("bulky", fee=1000, weight=50))
        pool.submit(_entry("small", fee=10, weight=10))
        block = pool.pack_block(weight_budget=20)
        assert [entry.tx_hash for entry in block] == ["small"]

    def test_budget_validation(self):
        with pytest.raises(MempoolError):
            Mempool().pack_block(0)


@settings(max_examples=100)
@given(
    fees=st.lists(
        st.integers(min_value=1, max_value=10_000), min_size=1, max_size=40
    ),
    budget=st.integers(min_value=10, max_value=200),
)
def test_packing_never_exceeds_budget_and_maximises_rate(fees, budget):
    """Property: packed weight <= budget; included min rate >= excluded
    max rate among same-size entries."""
    pool = Mempool(min_fee_rate=0.0, max_weight=10**9)
    for index, fee in enumerate(fees):
        pool.submit(_entry(f"t{index}", fee=fee, weight=10))
    block = pool.pack_block(weight_budget=budget)
    assert sum(entry.weight for entry in block) <= budget
    if block and len(pool):
        included_min = min(entry.fee_rate for entry in block)
        excluded_max = max(
            pool.get(tx_hash).fee_rate for tx_hash in pool.tx_hashes()
        )
        assert included_min >= excluded_max - 1e-9


class TestDependencyAwarePacking:
    def test_child_waits_for_parent(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("parent", fee=10, weight=10))   # cheap parent
        pool.submit(_entry("child", fee=100, weight=10))   # rich child
        pool.submit(_entry("other", fee=50, weight=10))
        block = pool.pack_block_with_dependencies(
            30, parents={"child": {"parent"}}
        )
        order = [entry.tx_hash for entry in block]
        assert order.index("parent") < order.index("child")
        assert set(order) == {"parent", "child", "other"}

    def test_child_blocked_when_parent_does_not_fit(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("parent", fee=10, weight=50))
        pool.submit(_entry("child", fee=100, weight=10))
        block = pool.pack_block_with_dependencies(
            20, parents={"child": {"parent"}}
        )
        assert block == []

    def test_confirmed_parent_not_required(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("child", fee=100, weight=10))
        block = pool.pack_block_with_dependencies(
            20, parents={"child": {"already-on-chain"}}
        )
        assert [entry.tx_hash for entry in block] == ["child"]

    def test_chain_of_dependencies_packs_in_order(self):
        pool = Mempool(min_fee_rate=0.1)
        for name, fee in (("a", 10), ("b", 20), ("c", 90)):
            pool.submit(_entry(name, fee=fee, weight=10))
        block = pool.pack_block_with_dependencies(
            30, parents={"b": {"a"}, "c": {"b"}}
        )
        assert [entry.tx_hash for entry in block] == ["a", "b", "c"]

    def test_dependency_cycle_never_selected(self):
        pool = Mempool(min_fee_rate=0.1)
        pool.submit(_entry("x", fee=10, weight=10))
        pool.submit(_entry("y", fee=10, weight=10))
        block = pool.pack_block_with_dependencies(
            100, parents={"x": {"y"}, "y": {"x"}}
        )
        assert block == []
        assert "x" in pool and "y" in pool

    def test_budget_validation(self):
        with pytest.raises(MempoolError):
            Mempool().pack_block_with_dependencies(0, parents={})


class TestLifecycleInstrumentation:
    def test_submit_opens_trace_and_eviction_closes_dropped(self):
        from repro import obs

        with obs.instrumented() as state:
            pool = Mempool(max_weight=20, min_fee_rate=0.1)
            pool.submit(_entry("cheap", fee=10, weight=10))
            pool.submit(_entry("rich", fee=100, weight=10))
            # Third entry overflows capacity; the lowest fee rate goes.
            pool.submit(_entry("richer", fee=200, weight=10))
            assert "cheap" not in pool
            cheap = state.lifecycle.trace("cheap")
            assert cheap.outcome == "dropped"
            assert cheap.events[-1].attrs["reason"] == "evicted"
            assert state.lifecycle.trace("rich").outcome is None
            counters = state.registry.snapshot()["counters"]
            assert counters["mempool.evicted"] == 1.0
            assert counters["lifecycle.closed{outcome=dropped}"] == 1.0

    def test_replaced_transaction_closes_dropped(self):
        from repro import obs

        with obs.instrumented() as state:
            pool = Mempool(replacement_factor=1.5)
            pool.submit(
                _entry("old", fee=100, replacement_key="alice:0")
            )
            pool.submit(
                _entry("bump", fee=200, replacement_key="alice:0")
            )
            old = state.lifecycle.trace("old")
            assert old.outcome == "dropped"
            assert old.events[-1].attrs["reason"] == "replaced"
            assert state.lifecycle.trace("bump").outcome is None

    def test_packing_records_included_stage(self):
        from repro import obs

        with obs.instrumented() as state:
            pool = Mempool(min_fee_rate=0.1)
            pool.submit(_entry("a", fee=100, weight=10))
            pool.pack_block(100)
            trace = state.lifecycle.trace("a")
            assert trace.stages == ("admitted", "included")

    def test_untraced_pool_still_works_when_disabled(self):
        from repro import obs

        obs.uninstall()
        pool = Mempool(max_weight=20, min_fee_rate=0.1)
        pool.submit(_entry("a", fee=10, weight=10))
        pool.submit(_entry("b", fee=100, weight=20))
        assert "a" not in pool  # evicted, silently
        assert pool.pack_block(100)
