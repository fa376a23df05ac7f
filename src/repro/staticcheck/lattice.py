"""Abstract domains shared by the analyzer passes.

* **Values** — the building blocks of a stack slot: a known constant
  (:class:`Const`, the result of constant propagation) or the top
  element :data:`TOP` ("any value").  The slot lattice built on them
  (sets and strided intervals of constants) is
  :mod:`repro.staticcheck.valueset`.  There is no bottom element:
  unreachable states are simply never created.

* **Key sets** — a :class:`MaySet` over-approximates a set of storage
  keys / addresses.  It is a finite set of strings until a dynamic
  operand fails to resolve to finitely many keys, at which point it
  widens to ⊤ ("may touch any key in scope").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from repro.sets import EMPTY


class Top:
    """The ⊤ abstract value: "could be anything"."""

    _instance: "Top | None" = None

    def __new__(cls) -> "Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊤"


TOP = Top()


@dataclass(frozen=True)
class Const:
    """A stack slot known to hold exactly *value* on every path."""

    value: Union[int, str]

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class MaySet:
    """A sound over-approximation of a set of keys/addresses.

    ``top=True`` means "any key" — the concrete items are then
    irrelevant for membership (but retained: they are still useful as
    the *definitely-mentioned* subset when rendering diagnostics).
    """

    items: frozenset[str] = EMPTY
    top: bool = False

    def add(self, item: str) -> "MaySet":
        return MaySet(items=self.items | {item}, top=self.top)

    def widen(self) -> "MaySet":
        return MaySet(items=self.items, top=True)

    def union(self, other: "MaySet") -> "MaySet":
        return MaySet(
            items=self.items | other.items, top=self.top or other.top
        )

    def covers(self, item: str) -> bool:
        """May this set contain *item*?  (⊤ covers everything.)"""
        return self.top or item in self.items

    def is_superset_of(self, concrete: frozenset[str]) -> bool:
        return self.top or concrete <= self.items

    def __bool__(self) -> bool:
        return self.top or bool(self.items)

