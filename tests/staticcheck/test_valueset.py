"""Unit tests for the bounded value-set slot domain.

Covers canonical normalization (:func:`from_values`), joins, the
termination argument (finite per-slot join chains), constant folding,
branch decisions and storage-key enumeration.  Soundness of the whole interpreter over this domain is
property-tested in ``test_soundness_property.py``.
"""

from __future__ import annotations

from repro.staticcheck.lattice import TOP, Const
from repro.staticcheck.valueset import (
    MAX_ENUMERATED_KEYS,
    MAX_FOLD_ELEMENTS,
    MAX_INTERVAL_COUNT,
    MAX_SET_SIZE,
    StridedInterval,
    ValueSet,
    branch,
    elements_of,
    enumerate_keys,
    fold,
    from_values,
    iszero,
    join,
    join_stacks,
)


class TestFromValues:
    def test_empty_is_top(self):
        assert from_values(()) is TOP

    def test_singleton_is_const(self):
        assert from_values([7]) == Const(7)
        assert from_values(["key_a", "key_a"]) == Const("key_a")

    def test_small_set(self):
        value = from_values([1, "payee_b"])
        assert value == ValueSet(frozenset({1, "payee_b"}))

    def test_set_bound_is_tight(self):
        at_bound = from_values(range(MAX_SET_SIZE))
        assert isinstance(at_bound, ValueSet)
        over = from_values(range(MAX_SET_SIZE + 1))
        assert isinstance(over, StridedInterval)

    def test_interval_uses_gcd_stride(self):
        value = from_values(range(0, 40, 4))  # 10 members, stride 4
        assert value == StridedInterval(lo=0, hi=36, stride=4)
        assert elements_of(value) == frozenset(range(0, 40, 4))

    def test_mixed_symbols_beyond_set_bound_widen(self):
        members = [*range(MAX_SET_SIZE), "key_a"]
        assert from_values(members) is TOP

    def test_interval_count_bound(self):
        dense = from_values(range(MAX_INTERVAL_COUNT + 1))
        assert dense is TOP
        sparse = from_values(range(0, MAX_INTERVAL_COUNT * 2, 2))
        assert isinstance(sparse, StridedInterval)
        assert sparse.count == MAX_INTERVAL_COUNT


class TestJoin:
    def test_join_is_exact_while_small(self):
        joined = join(Const("payee_a"), Const("payee_b"))
        assert joined == ValueSet(frozenset({"payee_a", "payee_b"}))

    def test_top_absorbs(self):
        assert join(TOP, Const(1)) is TOP
        assert join(Const(1), TOP) is TOP

    def test_join_is_commutative_and_idempotent(self):
        a = from_values([1, 2, 3])
        b = from_values([3, 4])
        assert join(a, b) == join(b, a)
        assert join(a, a) == a

    def test_join_chain_terminates(self):
        """Per-slot join chains reach a fixpoint in bounded steps."""
        value = join(Const(0), Const(1))
        steps = 0
        current = value
        for nxt in range(2, 10_000):
            joined = join(current, Const(nxt))
            if joined == current:
                continue
            current = joined
            steps += 1
            if current is TOP:
                break
        assert current is TOP
        assert steps <= MAX_SET_SIZE + MAX_INTERVAL_COUNT + 2

    def test_join_stacks_slotwise(self):
        a = (Const(1), Const("k"))
        b = (Const(2), Const("k"))
        joined = join_stacks(a, b)
        assert joined == (ValueSet(frozenset({1, 2})), Const("k"))
        assert join_stacks(a, (Const(1),)) is None
        assert join_stacks(None, a) is None


class TestTransfer:
    def test_fold_cartesian_product(self):
        lhs = from_values([10, 20])
        rhs = from_values([1, 2])
        folded = fold(lambda a, b: a + b, lhs, rhs)
        assert elements_of(folded) == frozenset({11, 12, 21, 22})

    def test_fold_symbol_operand_widens(self):
        assert (
            fold(lambda a, b: a + b, Const("k"), Const(1))
            is TOP
        )

    def test_fold_product_bound(self):
        lhs = from_values(range(0, MAX_FOLD_ELEMENTS, 2))
        rhs = from_values([0, 1, 2])
        assert len(elements_of(lhs) or ()) * 3 > MAX_FOLD_ELEMENTS
        assert fold(lambda a, b: a + b, lhs, rhs) is TOP

    def test_iszero(self):
        assert iszero(Const(0)) == Const(1)
        assert iszero(Const(5)) == Const(0)
        mixed = iszero(from_values([0, 3]))
        assert elements_of(mixed) == frozenset({0, 1})
        assert iszero(TOP) is TOP

    def test_branch_decision(self):
        assert branch(Const(0)) is False
        assert branch(Const(7)) is True
        assert branch(from_values([1, 2])) is True
        assert branch(from_values([0, 1])) is None
        assert branch(TOP) is None


class TestEnumerateKeys:
    def test_const_resolves_to_its_key(self):
        assert enumerate_keys(Const("slot7")) == ("slot7",)
        assert enumerate_keys(Const(7)) == ("7",)

    def test_sets_resolve_to_sorted_keys(self):
        routed = from_values(["payee_b", "payee_a"])
        assert enumerate_keys(routed) == ("payee_a", "payee_b")

    def test_short_intervals_enumerate(self):
        interval = from_values(range(0, MAX_ENUMERATED_KEYS * 4, 4))
        assert isinstance(interval, StridedInterval)
        keys = enumerate_keys(interval)
        assert keys == tuple(
            str(v) for v in range(0, MAX_ENUMERATED_KEYS * 4, 4)
        )

    def test_long_intervals_widen(self):
        interval = from_values(range(MAX_ENUMERATED_KEYS + 1))
        assert isinstance(interval, StridedInterval)
        assert enumerate_keys(interval) is None

    def test_top_widens(self):
        assert enumerate_keys(TOP) is None
