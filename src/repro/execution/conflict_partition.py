"""The location-indexed conflict partition — the one place the
execution engines' conflict structure is computed.

Two items conflict when one writes a location the other reads or
writes.  Asking that of every pair is quadratic in the block; filing
every item under the locations it touches and looking at one location
at a time is linear in the total size of the access sets, and gives the
same answer, because a conflict is always *about* some location:

* :func:`conflict_partition` — the connected components of the
  conflict relation (writers of a location join each other, readers
  join its writers, read-only sharers stay apart).  The oracle
  engines partition runtime :class:`~repro.execution.engine.TxTask`
  sets with it (:func:`~repro.execution.engine.conflict_groups`), the
  static engines and :func:`~repro.staticcheck.predict.predicted_tdg`
  partition :class:`~repro.staticcheck.predict.PredictedAccess` sets,
  whose two widened forms it also understands.
* :func:`cross_group_conflicts` — given a grouping made elsewhere
  (from predictions that may be unsound), the items with a conflict
  that crosses it: per location, do its writers, or a reader and a
  writer, sit in different groups?

``predicted_conflicts`` and ``TxTask.conflicts_with`` remain as the
two-item definitions the property tests hold both functions against;
no executor calls them.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, Sequence


class AccessSets(Protocol):
    """What the partition reads of an item (tasks and predictions fit)."""

    @property
    def reads(self) -> frozenset[str]: ...

    @property
    def writes(self) -> frozenset[str]: ...


def _by_location(
    items: Sequence[AccessSets],
) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """File every item's index under the locations it writes / reads."""
    writers: dict[str, list[int]] = {}
    readers: dict[str, list[int]] = {}
    for index, item in enumerate(items):
        for location in item.writes:
            writers.setdefault(location, []).append(index)
        for location in item.reads:
            readers.setdefault(location, []).append(index)
    return writers, readers


def conflict_partition(items: Sequence[AccessSets]) -> list[list[int]]:
    """Indices of *items* grouped by the closure of "may conflict".

    Groups come out in first-seen order with members ascending, i.e.
    in block order — what lets a group run as a sequential chain that
    preserves the block's commit order.

    Items may be predictions carrying widened forms (``is_widened``):
    ``global_top`` conflicts with everything, so one such item makes
    the block one group; ``write_wild`` at an address conflicts with
    every item touching that address and ``read_wild`` with every item
    writing there, found through per-address indexes over
    ``read_addrs`` / ``write_addrs`` that are only built for the
    addresses some wildcard names.
    """
    count = len(items)
    widened: list[tuple[int, Any]] = [
        (index, item) for index, item in enumerate(items)
        if getattr(item, "is_widened", False)
    ]
    if any(item.global_top for _index, item in widened):
        return [list(range(count))]

    # Union-find over item indices; the smaller root wins, so a
    # group's root is its first-seen member.
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def merge(members: Sequence[int]) -> None:
        root = find(members[0])
        for member in members:
            other = find(member)
            if other < root:
                root, other = other, root
            parent[other] = root

    writers, readers = _by_location(items)
    for location, filed in writers.items():
        sharers = readers.get(location)
        if sharers:
            merge(filed + sharers)
        elif len(filed) > 1:
            merge(filed)
    if widened:
        _merge_wildcards(items, widened, merge)

    groups: dict[int, list[int]] = {}
    for index in range(count):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


def _merge_wildcards(
    items: Sequence[Any],
    widened: Sequence[tuple[int, Any]],
    merge: Callable[[Sequence[int]], None],
) -> None:
    """Join each address's wildcard writers with everything touching
    the address, and its wildcard readers with everything writing it.

    A wildcard conflicts with *every* such item but itself, so each of
    the two sets is one component as soon as it has two members.
    """
    wild_writers: dict[str, list[int]] = {}
    wild_readers: dict[str, list[int]] = {}
    for index, item in widened:
        for address in item.write_wild:
            wild_writers.setdefault(address, []).append(index)
        for address in item.read_wild:
            wild_readers.setdefault(address, []).append(index)
    touching: dict[str, list[int]] = {address: [] for address in wild_writers}
    writing: dict[str, list[int]] = {address: [] for address in wild_readers}
    for index, item in enumerate(items):
        for address in item.write_addrs:
            if address in touching:
                touching[address].append(index)
            if address in writing:
                writing[address].append(index)
        for address in item.read_addrs:
            if address in touching:
                touching[address].append(index)
    for address, wild in wild_writers.items():
        if touching[address]:
            merge(wild + touching[address])
    for address, wild in wild_readers.items():
        if writing[address]:
            merge(wild + writing[address])


def cross_group_conflicts(
    items: Sequence[AccessSets], group_of: Sequence[int]
) -> list[int]:
    """Indices, ascending, of items that conflict across *group_of*.

    ``group_of[i]`` labels item ``i``; an item is reported when it
    conflicts with an item carrying another label.  Per location: if
    its writers carry two labels, every writer and every reader of it
    has a conflicting partner elsewhere; if they carry one, only the
    readers outside that group do — and with them every writer.
    Concrete locations only (runtime sets have no widened forms).
    """
    writers, readers = _by_location(items)
    crossing: set[int] = set()
    for location, filed in writers.items():
        sharers = readers.get(location, ())
        if len(filed) == 1 and not sharers:
            continue
        labels = {group_of[index] for index in filed}
        if len(labels) > 1:
            crossing.update(filed)
            crossing.update(sharers)
            continue
        (label,) = labels
        outside = [index for index in sharers if group_of[index] != label]
        if outside:
            crossing.update(outside)
            crossing.update(filed)
    return sorted(crossing)


__all__ = ["AccessSets", "conflict_partition", "cross_group_conflicts"]
