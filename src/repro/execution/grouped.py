"""The group schedule (paper §V-B).

With the block's dependency groups known, each group can execute
independently: within a group transactions run sequentially in block
order, while groups are scheduled across cores.  The wall time is the
scheduled makespan — the quantity the paper bounds by ``max(L, x/n)``,
i.e. a speed-up of ``min(n, 1/l)`` (Eq. 2).

Scheduling groups onto finitely many cores is the NP-hard
multiprocessor scheduling problem (ref. [11]); :func:`chain_schedule`,
the schedule written once, supports the same policies as
:mod:`repro.core.scheduling` (greedy list and LPT).  The two engines
here differ only in where the groups come from:

* :class:`GroupedExecutor` is the paper's scheduler with oracle
  information: it derives the groups from the runtime read/write sets,
  which only exist after execution.
* :class:`StaticGroupedExecutor` makes the static analyzer's
  predictions (:mod:`repro.staticcheck.predict`) load-bearing instead:
  the groups are the conflict partition of the *predicted* access sets
  (:func:`~repro.execution.engine.predicted_groups`), and the wall time
  adds the analysis charge K — the realizable version of Eq. 2.

Soundness makes the static groups safe: a predicted set covers the
runtime set, so two truly conflicting transactions always land in the
same predicted group and execute sequentially in block order there.
As a safety net against *unsound* predictions the schedule still
validates with the runtime conflict relation: any true conflict
spanning two groups aborts the tasks involved, which re-run
sequentially in block order after the parallel phase (PR 3's miss
handling).  On the golden chain the net never fires — the differential
harness pins zero re-executions and state/receipt roots identical to
the oracle scheduler's.  Tasks with no prediction collapse the block
into one group, which degrades to sequential block-order execution,
never to a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.execution.conflict_partition import cross_group_conflicts
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


def cross_group_aborts(
    tasks: Sequence[TxTask], groups: Sequence[Sequence[TxTask]]
) -> list[TxTask]:
    """Tasks, in block order, whose *runtime* conflicts span two groups."""
    group_of: dict[str, int] = {}
    for index, group in enumerate(groups):
        for task in group:
            group_of[task.tx_hash] = index
    labels = [group_of[task.tx_hash] for task in tasks]
    return [tasks[index] for index in cross_group_conflicts(tasks, labels)]


def chain_schedule(
    name: str, cores: int, tasks: Sequence[TxTask],
    groups: Sequence[Sequence[TxTask]], cost: float,
    *, policy: str, exact: bool,
) -> tuple[ExecutionReport, list[list[TxTask]]]:
    """Run *groups* as sequential chains across lanes.

    Returns the report and the chains in dispatch order: discovery
    order under the "list" policy, largest total cost first under
    "lpt".  The charge K (*cost*) shifts the whole schedule right.
    Unless the groups are the runtime partition itself (*exact*), the
    cross-group safety net sends its aborts to a sequential retry
    segment behind the makespan.
    """
    ordered = [list(group) for group in groups if group]
    if policy == "lpt":
        ordered.sort(key=lambda group: -sum(task.cost for task in group))
    run = CoreSimulator(cores).run_chains(ordered)
    aborted = [] if exact else cross_group_aborts(tasks, ordered)
    retry_time = sum(task.cost for task in aborted)
    # One wave: every task has its chain-scheduled start, finish and
    # core; the aborts are stamped at their finish and retry on lane 0.
    recorder = obs.get_recorder()
    wave_rows(
        recorder, name, [task for group in ordered for task in group],
        run, offset=cost, aborted=aborted,
    )
    sequential_rows(
        recorder, name, aborted, offset=cost + run.makespan,
        round_index=1, retry=True,
    )
    commits = wave_commits(run, aborted, cost)
    commits += sequential_commits(aborted, cost + run.makespan)
    report = ExecutionReport(
        executor=name,
        cores=cores,
        wall_time=cost + run.makespan + retry_time,
        total_work=sum(task.cost for task in tasks),
        num_tasks=len(tasks),
        reexecuted=len(aborted),
        aborts=len(aborted),
        rounds=2 if aborted else 1,
        commits=tuple(commits),
    )
    return report, ordered


@dataclass
class GroupedExecutor:
    """Connected-component scheduler over a simulated multicore.

    Args:
        cores: number of cores.
        policy: "list" dispatches groups in discovery order; "lpt" sorts
            them by total cost, largest first (better makespans).
        scheduling_cost: the K of §V-B — TDG construction plus
            scheduling overhead, charged before execution starts.
    """

    cores: int
    policy: str = "lpt"
    scheduling_cost: float = 0.0
    name = "grouped"

    def __post_init__(self) -> None:
        require(self.cores, scheduling_cost=self.scheduling_cost)
        if self.policy not in ("list", "lpt"):
            raise ValueError(f"unknown policy {self.policy!r}")

    def run(
        self,
        tasks: Sequence[TxTask],
        *,
        groups: Sequence[Sequence[TxTask]] | None = None,
    ) -> ExecutionReport:
        """Execute *tasks*; *groups* overrides conflict detection.

        When *groups* is omitted the executor derives dependency groups
        from the tasks' read/write sets (what a real engine would do
        after a TDG-construction pass).
        """
        if not tasks:
            return finish_run(self.name, self.cores)
        with obs.trace_span(
            "exec.grouped.run", cores=self.cores, policy=self.policy
        ) as span:
            if groups is None:
                groups = conflict_groups(tasks)
            report, ordered = chain_schedule(
                self.name, self.cores, tasks, groups,
                self.scheduling_cost, policy=self.policy, exact=True,
            )
            if obs.measuring():
                span.set(tasks=len(tasks), groups=len(ordered))
                obs.counter("exec.grouped.groups").inc(len(ordered))
                size_hist = obs.histogram("exec.grouped.group_size")
                for group in ordered:
                    size_hist.observe(len(group))
        return finish_run(self.name, self.cores, report)


@dataclass
class StaticGroupedExecutor:
    """Predicted-conflict group scheduler over a simulated multicore.

    Args:
        cores: number of parallel lanes.
        predictions: ``tx_hash`` → :class:`PredictedAccess`.  Tasks
            with no prediction are treated as "may touch anything".
        scheduling_cost: the K of §V-B — static analysis plus group
            scheduling, charged before execution starts.
    """

    cores: int
    predictions: Predictions = field(default_factory=dict)
    scheduling_cost: float = 0.0
    name = "static-grouped"

    def __post_init__(self) -> None:
        require(self.cores, scheduling_cost=self.scheduling_cost)

    def run(
        self,
        tasks: Sequence[TxTask],
        *,
        groups: Sequence[Sequence[TxTask]] | None = None,
    ) -> ExecutionReport:
        """Schedule predicted groups in parallel lanes; retry misses.

        *groups* are the predicted groups of *tasks* when the caller
        already has them; ``predictions`` yield them otherwise.
        """
        if not tasks:
            return finish_run(self.name, self.cores)
        with obs.trace_span(
            "exec.static_grouped.run", cores=self.cores
        ) as span:
            if groups is None:
                groups = predicted_groups(self.predictions, tasks)
            report, ordered = chain_schedule(
                self.name, self.cores, tasks, groups,
                self.scheduling_cost, policy="lpt", exact=False,
            )
            if obs.measuring():
                span.set(
                    tasks=len(tasks),
                    groups=len(ordered),
                    aborts=report.aborts,
                )
                obs.counter("exec.static_grouped.groups").inc(len(ordered))
                size_hist = obs.histogram("exec.static_grouped.group_size")
                for group in ordered:
                    size_hist.observe(len(group))
                obs.counter("exec.static_grouped.aborts").inc(report.aborts)
        return finish_run(self.name, self.cores, report)
