"""Group-scheduled execution driven by *static* conflict predictions.

:class:`~repro.execution.grouped.GroupedExecutor` is the paper's §V-B
scheduler with oracle information: it derives dependency groups from
the runtime read/write sets, which only exist after execution.  This
executor makes the static analyzer's predictions
(:mod:`repro.staticcheck.predict`) load-bearing instead: each block is
partitioned into conflict groups by the location-indexed partition
(:mod:`repro.execution.conflict_partition`) of its *predicted* access
sets, groups run as sequential chains across parallel
lanes, and the wall time is the scheduled makespan plus the analysis
charge K — the realizable version of ``min(n, 1/l)`` (Eq. 2).

Soundness makes this safe: a predicted set covers the runtime set, so
two truly conflicting transactions always land in the same predicted
group and execute sequentially in block order there.  As a safety net
against *unsound* predictions the executor still validates with the
runtime conflict relation: any true conflict spanning two predicted
groups aborts the tasks involved, which re-run sequentially in block
order after the parallel phase (PR 3's miss handling).  On the golden
chain the net never fires — the differential harness pins zero
re-executions and state/receipt roots identical to the oracle
scheduler's.

Tasks with no prediction fall back to "may touch anything" (sound,
maximally pessimistic): they collapse the block into one group, which
degrades to sequential block-order execution, never to a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import obs
from repro.execution.conflict_partition import (
    conflict_partition,
    cross_group_conflicts,
)
from repro.execution.engine import (
    ExecutionReport,
    TxTask,
    record_report,
)
from repro.execution.simulator import CoreSimulator
from repro.obs.timeline import sequential_rows, wave_rows

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.staticcheck.predict import PredictedAccess


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
    predictions: Mapping[str, "PredictedAccess"] = field(
        default_factory=dict
    )
    scheduling_cost: float = 0.0
    name = "static-grouped"

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be at least 1")
        if self.scheduling_cost < 0:
            raise ValueError("scheduling_cost must be non-negative")

    def _prediction(self, tx_hash: str) -> "PredictedAccess":
        from repro.staticcheck.predict import unknown_access

        found = self.predictions.get(tx_hash)
        return found if found is not None else unknown_access(tx_hash)

    def _predicted_groups(
        self, tasks: Sequence[TxTask]
    ) -> list[list[TxTask]]:
        """The conflict partition of the tasks' *predicted* access sets.

        Groups come out in first-seen order with members in block
        order, so each group's sequential chain preserves the block's
        commit order — the property that makes the scheduled result
        state-root-equivalent to sequential execution when the
        predictions are sound.
        """
        items = [self._prediction(task.tx_hash) for task in tasks]
        return [
            [tasks[index] for index in group]
            for group in conflict_partition(items)
        ]

    def _cross_group_aborts(
        self,
        tasks: Sequence[TxTask],
        groups: Sequence[Sequence[TxTask]],
    ) -> list[TxTask]:
        """Tasks whose *runtime* conflicts span two predicted groups."""
        group_of: dict[str, int] = {}
        for index, group in enumerate(groups):
            for task in group:
                group_of[task.tx_hash] = index
        labels = [group_of[task.tx_hash] for task in tasks]
        return [
            tasks[index] for index in cross_group_conflicts(tasks, labels)
        ]

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        """Schedule predicted groups in parallel lanes; retry misses."""
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
            "exec.static_grouped.run", cores=self.cores
        ) as span:
            groups = self._predicted_groups(tasks)
            ordered = [list(group) for group in groups]
            ordered.sort(key=lambda group: -sum(task.cost for task in group))
            run = CoreSimulator(self.cores).run_chains(ordered)
            aborted = self._cross_group_aborts(tasks, ordered)
            retry_time = sum(task.cost for task in aborted)
            recorder = obs.get_recorder()
            if recorder.enabled:
                wave_rows(
                    recorder, self.name,
                    [task for group in ordered for task in group],
                    run, offset=self.scheduling_cost,
                    aborted=aborted,
                )
                sequential_rows(
                    recorder, self.name, aborted,
                    offset=self.scheduling_cost + run.makespan,
                    round_index=1, retry=True,
                )
            if obs.enabled():
                span.set(
                    tasks=len(tasks),
                    groups=len(ordered),
                    aborts=len(aborted),
                )
                obs.counter("exec.static_grouped.groups").inc(len(ordered))
                size_hist = obs.histogram("exec.static_grouped.group_size")
                for group in ordered:
                    size_hist.observe(len(group))
                obs.counter("exec.static_grouped.aborts").inc(len(aborted))
            report = ExecutionReport(
                executor=self.name,
                cores=self.cores,
                wall_time=self.scheduling_cost + run.makespan + retry_time,
                total_work=total,
                num_tasks=len(tasks),
                reexecuted=len(aborted),
                aborts=len(aborted),
                rounds=2 if aborted else 1,
            )
        record_report(report)
        return report
