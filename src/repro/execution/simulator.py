"""Discrete-time multicore simulator.

Executors express their plans as waves of tasks; the simulator turns a
wave into a makespan by greedy list scheduling onto core timelines.  It
also exposes a dependency-aware mode where each task may name an
earlier task it must follow (used by the grouped executor to serialise
within dependency groups while letting groups overlap arbitrarily).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

from repro.execution.engine import TxTask, require


@dataclass(frozen=True)
class SimulatedRun:
    """Timeline of one simulated execution."""

    makespan: float
    start_times: dict[str, float]
    finish_times: dict[str, float]
    core_of: dict[str, int]


class CoreSimulator:
    """A bank of *cores* identical cores with greedy dispatch."""

    def __init__(self, cores: int):
        require(cores)
        self.cores = cores

    def run_wave(self, tasks: Sequence[TxTask]) -> SimulatedRun:
        """Run independent *tasks*: each goes to the earliest-free core."""
        heap: list[tuple[float, int]] = [
            (0.0, core) for core in range(self.cores)
        ]
        heapq.heapify(heap)
        start_times: dict[str, float] = {}
        finish_times: dict[str, float] = {}
        core_of: dict[str, int] = {}
        for task in tasks:
            free_at, core = heapq.heappop(heap)
            start_times[task.tx_hash] = free_at
            finish = free_at + task.cost
            finish_times[task.tx_hash] = finish
            core_of[task.tx_hash] = core
            heapq.heappush(heap, (finish, core))
        makespan = max(finish_times.values(), default=0.0)
        return SimulatedRun(
            makespan=makespan,
            start_times=start_times,
            finish_times=finish_times,
            core_of=core_of,
        )

    def run_chains(
        self, chains: Sequence[Sequence[TxTask]]
    ) -> SimulatedRun:
        """Run dependency chains: tasks within a chain are sequential.

        Each chain is dispatched as a unit to the earliest-free core —
        the grouped executor's model, where a dependency group must stay
        on one logical execution stream.
        """
        heap: list[tuple[float, int]] = [
            (0.0, core) for core in range(self.cores)
        ]
        heapq.heapify(heap)
        start_times: dict[str, float] = {}
        finish_times: dict[str, float] = {}
        core_of: dict[str, int] = {}
        for chain in chains:
            if not chain:
                continue
            free_at, core = heapq.heappop(heap)
            cursor = free_at
            for task in chain:
                start_times[task.tx_hash] = cursor
                cursor += task.cost
                finish_times[task.tx_hash] = cursor
                core_of[task.tx_hash] = core
            heapq.heappush(heap, (cursor, core))
        makespan = max(finish_times.values(), default=0.0)
        return SimulatedRun(
            makespan=makespan,
            start_times=start_times,
            finish_times=finish_times,
            core_of=core_of,
        )
