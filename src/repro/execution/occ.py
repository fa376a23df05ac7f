"""Optimistic concurrency control executor (batch validation).

A third engine design, between the paper's two models: execute pending
transactions in parallel waves with no locking; at the end of each wave
commit transactions in block order, aborting any whose read/write sets
overlap the writes of a transaction committed earlier *in the same
wave* — or that conflict with an earlier transaction that itself
aborted (committing past it would reorder conflicting transactions
against block order, diverging from the sequential state).  Aborted
transactions retry in the next wave.

This is the software-transactional-memory approach of Dickerson et al.
(paper ref. [6]) reduced to its scheduling skeleton, and it converges:
within each wave at least the first pending transaction commits.  It
lets the benches show where OCC sits between fully speculative
execution and TDG-informed group scheduling as the conflict rate rises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    finish_run,
    require,
)
from repro.execution.schedule import Wave
from repro.execution.simulator import CoreSimulator

MAX_WAVES = 10_000


@dataclass
class OCCExecutor:
    """Wave-based optimistic executor with order-preserving commits."""

    cores: int
    name = "occ"

    def __post_init__(self) -> None:
        require(self.cores)

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        """Run waves until every transaction has committed."""
        if not tasks:
            return finish_run(self.name, self.cores)
        recording = obs.measuring()
        simulator = CoreSimulator(self.cores)
        pending = list(tasks)
        wall = 0.0
        aborts = 0
        waves = 0
        schedule: list[Wave] = []
        while pending:
            waves += 1
            if waves > MAX_WAVES:
                raise RuntimeError("OCC failed to converge")
            if recording:
                obs.histogram("exec.occ.queue_depth").observe(
                    len(pending)
                )
            wave_offset = wall
            run = simulator.run_wave(pending)
            wall += run.makespan
            committed_writes: set[str] = set()
            aborted_writes: set[str] = set()
            aborted_reads: set[str] = set()
            next_round: list[TxTask] = []
            for task in pending:  # commit in block order
                touches = (task.reads | task.writes) & committed_writes
                # Block-order preservation: a task that conflicts
                # with an EARLIER task aborted in this wave must
                # abort too, or it would commit ahead of it and the
                # final state would no longer equal the sequential
                # block-order state (the differential suite checks
                # exactly this via per-location commit-order roots).
                blocked = (
                    (task.reads | task.writes) & aborted_writes
                    or task.writes & aborted_reads
                )
                if touches or blocked:
                    aborts += 1
                    aborted_writes |= task.writes
                    aborted_reads |= task.reads
                    next_round.append(task)
                else:
                    committed_writes |= task.writes
            # The aborts re-queue at the next wave's start.
            schedule.append(
                Wave(pending, run, wave_offset, waves - 1, next_round)
            )
            pending = next_round
        if recording:
            obs.counter("exec.occ.aborts").inc(aborts)
            obs.counter("exec.occ.waves").inc(waves)
            obs.counter("exec.occ.retries").inc(aborts)
        report = ExecutionReport(
            executor=self.name,
            cores=self.cores,
            wall_time=wall,
            total_work=sum(task.cost for task in tasks),
            num_tasks=len(tasks),
            reexecuted=aborts,
            aborts=aborts,
            rounds=waves,
            schedule=tuple(schedule),
        )
        return finish_run(self.name, self.cores, report)
