"""Multiprocessor scheduling of dependency groups — paper §V-B.

Executing a block's dependency groups on ``n`` cores is exactly the
multiprocessor scheduling problem (minimise makespan of independent
jobs), which the paper notes is NP-hard (ref. [11]).  The paper settles
for the upper bound ``min(n, 1/l)``; this module supplies the machinery
to check how tight that bound is in practice:

* :func:`makespan_lower_bound` — max(critical path, total work / n);
* :func:`list_schedule` — greedy list scheduling in given order
  (Graham's bound: <= 2 - 1/n of optimal);
* :func:`lpt_schedule` — Longest Processing Time first
  (<= 4/3 - 1/(3n) of optimal);
* :func:`optimal_makespan` — exact branch-and-bound for small inputs,
  used by tests to certify the heuristics.

Job sizes are the group sizes of a :class:`repro.core.tdg.TDGResult`
(unit-cost transactions) or group weights (gas-weighted variant).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Schedule:
    """An assignment of jobs to cores.

    Attributes:
        assignments: per-core tuples of job indices (into the original
            job-size sequence).
        makespan: completion time of the busiest core.
        cores: number of cores scheduled onto.
    """

    assignments: tuple[tuple[int, ...], ...]
    makespan: float
    cores: int


def _validate(sizes: Sequence[float], cores: int) -> None:
    if cores < 1:
        raise ValueError("cores must be at least 1")
    for size in sizes:
        if size < 0:
            raise ValueError("job sizes must be non-negative")


def makespan_lower_bound(sizes: Sequence[float], cores: int) -> float:
    """max(longest job, total work / cores) — no schedule beats this."""
    _validate(sizes, cores)
    if not sizes:
        return 0.0
    return max(max(sizes), sum(sizes) / cores)


def list_schedule(sizes: Sequence[float], cores: int) -> Schedule:
    """Greedy list scheduling: each job goes to the least-loaded core.

    Processes jobs in the order given, which for a block means the order
    dependency groups appear — the policy an executor gets "for free".
    """
    _validate(sizes, cores)
    heap: list[tuple[float, int]] = [(0.0, core) for core in range(cores)]
    heapq.heapify(heap)
    assignments: list[list[int]] = [[] for _ in range(cores)]
    for index, size in enumerate(sizes):
        load, core = heapq.heappop(heap)
        assignments[core].append(index)
        heapq.heappush(heap, (load + size, core))
    makespan = max(load for load, _ in heap) if heap else 0.0
    return Schedule(
        assignments=tuple(tuple(core_jobs) for core_jobs in assignments),
        makespan=makespan,
        cores=cores,
    )


def lpt_schedule(sizes: Sequence[float], cores: int) -> Schedule:
    """Longest Processing Time first: sort descending, then greedy.

    The classic 4/3-approximation; the natural policy when the TDG (and
    therefore every group size) is known before execution starts.
    """
    _validate(sizes, cores)
    order = sorted(range(len(sizes)), key=lambda index: -sizes[index])
    ordered_sizes = [sizes[index] for index in order]
    greedy = list_schedule(ordered_sizes, cores)
    assignments = tuple(
        tuple(order[position] for position in core_jobs)
        for core_jobs in greedy.assignments
    )
    return Schedule(
        assignments=assignments, makespan=greedy.makespan, cores=cores
    )


def optimal_makespan(
    sizes: Sequence[float],
    cores: int,
    *,
    max_jobs: int = 16,
) -> float:
    """Exact minimum makespan via branch-and-bound (small inputs only).

    Raises:
        ValueError: when more than *max_jobs* jobs are given — the
            search is exponential and intended for test certification.
    """
    _validate(sizes, cores)
    if len(sizes) > max_jobs:
        raise ValueError(
            f"optimal_makespan limited to {max_jobs} jobs, got {len(sizes)}"
        )
    if not sizes:
        return 0.0
    ordered = sorted(sizes, reverse=True)
    best = lpt_schedule(ordered, cores).makespan
    lower = makespan_lower_bound(ordered, cores)
    if best <= lower:
        return best
    loads = [0.0] * cores

    def search(index: int) -> None:
        nonlocal best
        if index == len(ordered):
            best = min(best, max(loads))
            return
        size = ordered[index]
        tried: set[float] = set()
        for core in range(cores):
            if loads[core] in tried:
                # Symmetric branch: same load on another core.
                continue
            tried.add(loads[core])
            if loads[core] + size >= best:
                continue
            loads[core] += size
            search(index + 1)
            loads[core] -= size
            if best <= lower:
                return

    search(0)
    return best


def scheduled_speedup(
    group_sizes: Sequence[float],
    cores: int,
    *,
    policy: str = "lpt",
    overhead: float = 0.0,
) -> float:
    """Realised speed-up of scheduling a block's groups on *cores* cores.

    This is the *achievable* counterpart of the paper's ``min(n, 1/l)``
    bound: total sequential work divided by the scheduled makespan plus
    any TDG-construction overhead.

    Args:
        group_sizes: dependency group sizes (or weights).
        cores: number of cores.
        policy: "lpt", "list", or "optimal".
        overhead: additive scheduling/TDG cost in time units (the K of
            §V-B).
    """
    total = float(sum(group_sizes))
    if total == 0:
        return 1.0
    if policy == "lpt":
        makespan = lpt_schedule(group_sizes, cores).makespan
    elif policy == "list":
        makespan = list_schedule(group_sizes, cores).makespan
    elif policy == "optimal":
        makespan = optimal_makespan(group_sizes, cores)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return total / (makespan + overhead)
