"""Bounded value-set lattice for the abstract interpreter.

PR 3's interpreter tracked one abstract value per stack slot: a single
:class:`~repro.staticcheck.lattice.Const` or ⊤.  Joining two different
constants — the normal outcome of a branch that pushes a different key
or call target on each arm — lost everything, widening whole access
sets to ⊤ even when the operand provably takes only two values.

This module generalizes the slot domain to a *bounded value set*:

``Const(v)`` ⊑ ``ValueSet({v₁..vₖ})`` ⊑ ``StridedInterval(lo,hi,s)`` ⊑ ⊤

* :class:`ValueSet` — a set of 2..``MAX_SET_SIZE`` exact constants
  (ints or symbols).  Joins stay exact while small.
* :class:`StridedInterval` — when a pure-int set outgrows the set
  bound, it widens to the sparsest arithmetic progression containing
  it (``lo + i·stride ≤ hi``; stride is the gcd of the offsets, so the
  interval is the tightest sound superset in this family).  The
  progression is capped at ``MAX_INTERVAL_COUNT`` members, after which
  the value widens to ⊤.
* ⊤ — unknown, as before.

Termination: every join either returns the left operand unchanged or
strictly grows the concretization.  A ``ValueSet`` grows at most
``MAX_SET_SIZE`` times; a ``StridedInterval``'s member count (≤
``MAX_INTERVAL_COUNT``) strictly increases on every non-trivial join
(widening the bounds or dividing the stride both add members); then ⊤.
Per-slot chains are therefore finite (≈75 steps), and the worklist
fixpoint in :mod:`repro.staticcheck.absint` converges.

Because interval membership is capped, *every* non-⊤ value has an
explicit finite element set (:func:`elements_of`), which keeps joins,
constant folding (cartesian products) and storage-key enumeration
simple and obviously sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Union

from repro.staticcheck.lattice import TOP, Const, Top

#: Exact constant sets keep at most this many members before widening.
MAX_SET_SIZE = 8

#: A strided interval covers at most this many members before ⊤.
MAX_INTERVAL_COUNT = 64

#: Storage-key enumeration gives up beyond this many predicted keys —
#: a 64-key prediction would conflict with nearly everything anyway, so
#: the per-address wildcard (⊤) is the better, cheaper approximation.
MAX_ENUMERATED_KEYS = 16

#: Constant folding expands cartesian products up to this many pairs.
MAX_FOLD_ELEMENTS = 64

Concrete = Union[int, str]


@dataclass(frozen=True)
class ValueSet:
    """A set of 2..``MAX_SET_SIZE`` exact constant values."""

    values: frozenset[Concrete]


@dataclass(frozen=True)
class StridedInterval:
    """Ints ``{lo, lo+stride, ..., hi}`` — a widened all-int set."""

    lo: int
    hi: int
    stride: int

    @property
    def count(self) -> int:
        return (self.hi - self.lo) // self.stride + 1


#: One abstract stack slot under the value-set domain.
Value = Union[Const, ValueSet, StridedInterval, Top]

#: An abstract stack: a tuple of slots bottom-to-top when the height is
#: the same on every path reaching the program point, or None
#: ("unknown stack") when joining paths of different heights.  Pops from
#: an unknown stack yield ⊤ and underflow can no longer be proven.
ValueStack = Union[tuple[Value, ...], None]


def from_values(values: Iterable[Concrete]) -> Value:
    """The smallest lattice element covering *values* (canonical form)."""
    concrete = frozenset(values)
    if not concrete:
        return TOP
    if len(concrete) == 1:
        (only,) = concrete
        return Const(only)
    if len(concrete) <= MAX_SET_SIZE:
        return ValueSet(concrete)
    ints = sorted(v for v in concrete if isinstance(v, int))
    if len(ints) != len(concrete):
        return TOP  # symbols do not embed in an arithmetic progression
    lo, hi = ints[0], ints[-1]
    stride = 0
    for v in ints[1:]:
        stride = gcd(stride, v - lo)
    if stride == 0:  # pragma: no cover - >=2 distinct ints imply stride>0
        return TOP
    if (hi - lo) // stride + 1 > MAX_INTERVAL_COUNT:
        return TOP
    return StridedInterval(lo=lo, hi=hi, stride=stride)


def elements_of(value: Value) -> frozenset[Concrete] | None:
    """The finite concretization of *value*, or None for ⊤."""
    if isinstance(value, Const):
        return frozenset((value.value,))
    if isinstance(value, ValueSet):
        return value.values
    if isinstance(value, StridedInterval):
        return frozenset(range(value.lo, value.hi + 1, value.stride))
    return None


def _int_elements(value: Value) -> frozenset[int] | None:
    """All-int concretization, or None if ⊤ or any symbol member."""
    elements = elements_of(value)
    if elements is None:
        return None
    ints = frozenset(v for v in elements if isinstance(v, int))
    if len(ints) != len(elements):
        return None
    return ints


# -- lattice operations -----------------------------------------------------


def join(a: Value, b: Value) -> Value:
    """Least upper bound of two slot values."""
    if a == b:
        return a
    left = elements_of(a)
    right = elements_of(b)
    if left is None or right is None:
        return TOP
    return from_values(left | right)


def join_stacks(a: ValueStack, b: ValueStack) -> ValueStack:
    """Slot-wise join; mismatched heights widen to unknown."""
    if a is None or b is None or len(a) != len(b):
        return None
    return tuple(join(x, y) for x, y in zip(a, b))


# -- transfer functions -----------------------------------------------------


def fold(fold_fn: Callable[[int, int], int], lhs: Value, rhs: Value) -> Value:
    """Binary arithmetic over the cartesian product of int members."""
    left = _int_elements(lhs)
    right = _int_elements(rhs)
    if left is None or right is None:
        return TOP
    if len(left) * len(right) > MAX_FOLD_ELEMENTS:
        return TOP
    return from_values(fold_fn(a, b) for a in left for b in right)


def iszero(value: Value) -> Value:
    elements = _int_elements(value)
    if elements is None:
        return TOP
    return from_values(1 if v == 0 else 0 for v in elements)


def branch(condition: Value) -> bool | None:
    """JUMPI decision: True = jump, False = fall through, None = both."""
    elements = _int_elements(condition)
    if elements is None:
        return None
    truth = {v != 0 for v in elements}
    if len(truth) != 1:
        return None
    return truth.pop()


def enumerate_keys(value: Value) -> tuple[str, ...] | None:
    """The concrete storage keys / addresses *value* can denote.

    None means the access site widens to ⊤: the value is ⊤ or an
    interval longer than :data:`MAX_ENUMERATED_KEYS`.
    """
    if isinstance(value, Const):
        return (str(value.value),)
    if isinstance(value, ValueSet):
        return tuple(sorted(str(v) for v in value.values))
    if (
        isinstance(value, StridedInterval)
        and value.count <= MAX_ENUMERATED_KEYS
    ):
        return tuple(
            str(v) for v in range(value.lo, value.hi + 1, value.stride)
        )
    return None


__all__ = [
    "MAX_ENUMERATED_KEYS",
    "MAX_FOLD_ELEMENTS",
    "MAX_INTERVAL_COUNT",
    "MAX_SET_SIZE",
    "Concrete",
    "StridedInterval",
    "Value",
    "ValueSet",
    "ValueStack",
    "branch",
    "elements_of",
    "enumerate_keys",
    "fold",
    "from_values",
    "iszero",
    "join",
    "join_stacks",
]
