"""The two-phase speculative schedule (Saraph–Herlihy, paper §V-A).

Phase one runs transactions concurrently on ``n`` cores with no
concurrency control; any transaction found to conflict with another is
rolled back into a sequential "bin".  Phase two executes the bin in
block order on one core.  Conflicted transactions therefore execute
twice — the cost Eq. 1 charges as ``c·x``.

:func:`two_phase` is that schedule, written once.  What is known about
the block's conflicts beforehand is handed to it as *groups of tasks*,
and the three engines here differ only in where the groups come from:

* :class:`SpeculativeExecutor` knows nothing (no groups): the whole
  block runs in the parallel phase and every conflicted transaction
  aborts there.
* :class:`InformedSpeculativeExecutor` is the perfect-information
  model of §V-A: an oracle hands over the exact runtime conflict
  groups at a pre-processing cost ``K``, so the conflicted
  transactions are binned up front and execute once.
* :class:`StaticInformedExecutor` replaces the oracle with the static
  analyzer's predictions (:mod:`repro.staticcheck.predict`).  They
  over-approximate the runtime sets, so every true conflict is
  predicted (soundness) and the parallel phase is abort-free in the
  model — but false positives shrink it, which is exactly the
  precision/recall trade the static-conflict bench measures.  As a
  safety net against unsound predictions the parallel wave is still
  validated against the runtime conflict relation, and any abort it
  finds is charged a re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.execution.engine import (
    ExecutionReport,
    Predictions,
    TxTask,
    conflict_groups,
    finish_run,
    predicted_groups,
    require,
    sequential_commits,
    wave_commits,
)
from repro.execution.simulator import CoreSimulator
from repro.obs.timeline import sequential_rows, wave_rows


def split_conflicted(
    tasks: Sequence[TxTask],
    groups: Sequence[Sequence[TxTask]] | None = None,
) -> tuple[list[TxTask], list[TxTask]]:
    """Partition into (unconflicted, conflicted-bin), preserving order.

    Conflicted means a member of a group larger than one; *groups*
    defaults to the runtime conflict groups of *tasks*.
    """
    if groups is None:
        groups = conflict_groups(tasks)
    conflicted_hashes: set[str] = set()
    for group in groups:
        if len(group) > 1:
            conflicted_hashes.update(task.tx_hash for task in group)
    clean = [t for t in tasks if t.tx_hash not in conflicted_hashes]
    binned = [t for t in tasks if t.tx_hash in conflicted_hashes]
    return clean, binned


def two_phase(
    name: str, cores: int, tasks: Sequence[TxTask],
    groups: Sequence[Sequence[TxTask]], cost: float, *, exact: bool,
    wave_groups: Sequence[Sequence[TxTask]] | None = None,
) -> tuple[ExecutionReport, int]:
    """Run *tasks* through the two phases; return (report, bin size).

    Members of a group larger than one are binned up front.  After the
    charge K (*cost*) the rest run as one parallel wave.  Unless the
    groups are the runtime partition itself (*exact*), the wave is
    validated against the runtime conflict relation — *wave_groups*
    when the caller already has the wave's runtime groups: sound groups
    make that a no-op, it only charges work for a true conflict that
    slipped through the bin.  The bin, and behind it the wave's aborts,
    then run once each on lane 0 in block order.  Wall time is
    ``K + wave + (bin + retries)``.
    """
    wave, binned = split_conflicted(tasks, groups)
    run = CoreSimulator(cores).run_wave(wave)
    aborted = [] if exact else split_conflicted(wave, wave_groups)[1]
    bin_time = sum(task.cost for task in binned)
    retry_time = sum(task.cost for task in aborted)
    # The wave after K, its aborts stamped at their finish; then lane 0:
    # the bin's tasks schedule fresh, the aborts re-execute as retries.
    recorder = obs.get_recorder()
    bin_offset = cost + run.makespan
    wave_rows(recorder, name, wave, run, offset=cost, aborted=aborted)
    sequential_rows(
        recorder, name, binned, offset=bin_offset, round_index=1,
    )
    sequential_rows(
        recorder, name, aborted, offset=bin_offset + bin_time,
        round_index=1, retry=True,
    )
    commits = wave_commits(run, aborted, cost)
    commits += sequential_commits(binned, bin_offset)
    commits += sequential_commits(aborted, bin_offset + bin_time)
    report = ExecutionReport(
        executor=name,
        cores=cores,
        wall_time=cost + run.makespan + (bin_time + retry_time),
        total_work=sum(task.cost for task in tasks),
        num_tasks=len(tasks),
        reexecuted=len(aborted),
        aborts=len(aborted),
        rounds=2,
        commits=tuple(commits),
    )
    return report, len(binned)


@dataclass
class SpeculativeExecutor:
    """Fully speculative two-phase execution (no prior knowledge)."""

    cores: int
    name = "speculative"

    def __post_init__(self) -> None:
        require(self.cores)

    def run(
        self,
        tasks: Sequence[TxTask],
        *,
        groups: Sequence[Sequence[TxTask]] | None = None,
    ) -> ExecutionReport:
        """Run both phases; wall time = parallel phase + sequential bin.

        The engine schedules knowing nothing; *groups*, the runtime
        conflict groups of *tasks* when the caller already has them,
        only spare the validation of its wave (the whole block) a
        partition of its own.
        """
        if not tasks:
            return finish_run(self.name, self.cores)
        with obs.trace_span(
            "exec.speculative.run", cores=self.cores
        ) as span:
            report, _binned = two_phase(
                self.name, self.cores, tasks, (), 0.0, exact=False,
                wave_groups=groups,
            )
            if obs.measuring():
                span.set(tasks=len(tasks), reexecuted=report.reexecuted)
                obs.counter("exec.speculative.reexecuted").inc(
                    report.reexecuted
                )
                obs.counter("exec.speculative.aborts").inc(report.aborts)
                obs.histogram("exec.speculative.bin_fraction").observe(
                    report.reexecuted / len(tasks)
                )
        return finish_run(self.name, self.cores, report)


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
        require(self.cores, preprocessing_cost=self.preprocessing_cost)

    def run(
        self,
        tasks: Sequence[TxTask],
        *,
        groups: Sequence[Sequence[TxTask]] | None = None,
    ) -> ExecutionReport:
        """Parallel phase over unconflicted txs only; bin runs once.

        *groups* are the runtime conflict groups of *tasks* when the
        caller already has them; the oracle derives them otherwise.
        """
        if not tasks:
            return finish_run(self.name, self.cores)
        with obs.trace_span(
            "exec.speculative-informed.run", cores=self.cores
        ) as span:
            if groups is None:
                groups = conflict_groups(tasks)
            report, binned = two_phase(
                self.name, self.cores, tasks, groups,
                self.preprocessing_cost, exact=True,
            )
            if obs.measuring():
                span.set(tasks=len(tasks), binned=binned)
                obs.counter("exec.speculative-informed.binned").inc(binned)
        return finish_run(self.name, self.cores, report)


@dataclass
class StaticInformedExecutor:
    """Two-phase execution binned by statically predicted conflicts.

    Args:
        cores: parallel-phase width.
        predictions: ``tx_hash`` → :class:`PredictedAccess`.  Tasks
            with no prediction are treated as "may touch anything"
            (sound, maximally pessimistic).
        preprocessing_cost: the analysis cost K, charged up front.
    """

    cores: int
    predictions: Predictions = field(default_factory=dict)
    preprocessing_cost: float = 0.0
    name = "static-informed"

    def __post_init__(self) -> None:
        require(self.cores, preprocessing_cost=self.preprocessing_cost)

    def run(
        self,
        tasks: Sequence[TxTask],
        *,
        groups: Sequence[Sequence[TxTask]] | None = None,
    ) -> ExecutionReport:
        """Parallel phase over predicted-clean txs; bin runs in order.

        *groups* are the predicted groups of *tasks* when the caller
        already has them; ``predictions`` yield them otherwise.
        """
        if not tasks:
            return finish_run(self.name, self.cores)
        with obs.trace_span(
            "exec.static-informed.run", cores=self.cores
        ) as span:
            if groups is None:
                groups = predicted_groups(self.predictions, tasks)
            report, binned = two_phase(
                self.name, self.cores, tasks, groups,
                self.preprocessing_cost, exact=False,
            )
            if obs.measuring():
                span.set(
                    tasks=len(tasks), binned=binned, aborts=report.aborts
                )
                obs.counter("exec.static-informed.binned").inc(binned)
                obs.counter("exec.static-informed.aborts").inc(
                    report.aborts
                )
        return finish_run(self.name, self.cores, report)
