"""The two-phase speculative executor (Saraph–Herlihy, paper §V-A).

Phase one runs every transaction concurrently on ``n`` cores with no
concurrency control; any transaction found to conflict with another is
rolled back into a sequential "bin".  Phase two executes the bin in
block order on one core.  Conflicted transactions therefore execute
twice — the cost Eq. 1 charges as ``c·x``.

The *informed* variant knows the conflicted set beforehand (at a
pre-processing cost ``K``) and runs only the unconflicted transactions
in the parallel phase — the perfect-information model of §V-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    conflict_groups,
    record_report,
)
from repro.execution.simulator import CoreSimulator
from repro.obs.timeline import sequential_rows, wave_rows


def split_conflicted(
    tasks: Sequence[TxTask],
) -> tuple[list[TxTask], list[TxTask]]:
    """Partition into (unconflicted, conflicted-bin), preserving order."""
    conflicted_hashes: set[str] = set()
    for group in conflict_groups(tasks):
        if len(group) > 1:
            conflicted_hashes.update(task.tx_hash for task in group)
    clean = [t for t in tasks if t.tx_hash not in conflicted_hashes]
    binned = [t for t in tasks if t.tx_hash in conflicted_hashes]
    return clean, binned


@dataclass
class SpeculativeExecutor:
    """Fully speculative two-phase execution (no prior knowledge)."""

    cores: int
    name = "speculative"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        """Run both phases; wall time = parallel phase + sequential bin."""
        total = sum(task.cost for task in tasks)
        if not tasks:
            return ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=0.0,
                total_work=0.0,
                num_tasks=0,
            )
        with obs.trace_span(
            "exec.speculative.run", cores=self.cores
        ) as span:
            simulator = CoreSimulator(self.cores)
            phase_one = simulator.run_wave(tasks)
            _clean, binned = split_conflicted(tasks)
            phase_two = sum(task.cost for task in binned)
            recorder = obs.get_recorder()
            if recorder.enabled:
                # Phase one: every task runs optimistically; the binned
                # ones abort at their finish.  Phase two replays the bin
                # sequentially on lane 0 after the parallel makespan.
                wave_rows(
                    recorder, self.name, tasks, phase_one, aborted=binned,
                )
                sequential_rows(
                    recorder, self.name, binned,
                    offset=phase_one.makespan, round_index=1, retry=True,
                )
            if obs.enabled():
                span.set(tasks=len(tasks), reexecuted=len(binned))
                obs.counter("exec.speculative.reexecuted").inc(len(binned))
                obs.counter("exec.speculative.aborts").inc(len(binned))
                obs.histogram("exec.speculative.bin_fraction").observe(
                    len(binned) / len(tasks)
                )
            report = ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=phase_one.makespan + phase_two,
                total_work=total,
                num_tasks=len(tasks),
                reexecuted=len(binned),
                aborts=len(binned),
                rounds=2,
            )
        record_report(report)
        return report


@dataclass
class InformedSpeculativeExecutor:
    """Two-phase execution with perfect prior conflict knowledge.

    Args:
        cores: parallel-phase width.
        preprocessing_cost: the K of §V-A, charged up front (e.g. the
            cost of computing the conflict sets).
    """

    cores: int
    preprocessing_cost: float = 0.0
    name = "speculative-informed"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.preprocessing_cost < 0:
            raise ValueError("preprocessing_cost must be non-negative")

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        """Parallel phase over unconflicted txs only; bin runs once."""
        total = sum(task.cost for task in tasks)
        if not tasks:
            return ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=0.0,
                total_work=0.0,
                num_tasks=0,
            )
        with obs.trace_span(
            "exec.speculative-informed.run", cores=self.cores
        ) as span:
            clean, binned = split_conflicted(tasks)
            simulator = CoreSimulator(self.cores)
            clean_run = simulator.run_wave(clean) if clean else None
            phase_one = clean_run.makespan if clean_run else 0.0
            phase_two = sum(task.cost for task in binned)
            recorder = obs.get_recorder()
            if recorder.enabled:
                # Perfect information: the bin is known up front, so its
                # tasks execute exactly once, sequentially, after the
                # preprocessing charge K and the clean parallel wave.
                if clean_run is not None:
                    wave_rows(
                        recorder, self.name, clean, clean_run,
                        offset=self.preprocessing_cost,
                    )
                sequential_rows(
                    recorder, self.name, binned,
                    offset=self.preprocessing_cost + phase_one,
                    round_index=1,
                )
            if obs.enabled():
                span.set(tasks=len(tasks), binned=len(binned))
                obs.counter("exec.speculative-informed.binned").inc(
                    len(binned)
                )
            report = ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=self.preprocessing_cost + phase_one + phase_two,
                total_work=total,
                num_tasks=len(tasks),
                reexecuted=0,
                rounds=2,
            )
        record_report(report)
        return report
