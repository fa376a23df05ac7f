"""The group schedule (paper §V-B).

With the block's dependency groups known, each group can execute
independently: within a group transactions run sequentially in block
order, while groups are scheduled across cores.  The wall time is the
scheduled makespan — the quantity the paper bounds by ``max(L, x/n)``,
i.e. a speed-up of ``min(n, 1/l)`` (Eq. 2).

Scheduling groups onto finitely many cores is the NP-hard
multiprocessor scheduling problem (ref. [11]); :func:`chain_schedule`,
the schedule written once, dispatches them largest first (LPT, as
:mod:`repro.core.scheduling` does).  The two engines of
:data:`~repro.execution.registry.ENGINE_SPECS` that run it differ only
in where the groups come from:

* ``grouped`` is the paper's scheduler with oracle information: the
  groups are the partition of the runtime read/write sets, which only
  exist after execution.
* ``static-grouped`` makes the static analyzer's predictions
  (:mod:`repro.staticcheck.predict`) load-bearing instead: the groups
  are the conflict partition of the *predicted* access sets
  (:func:`~repro.execution.engine.predicted_groups`), and the wall time
  adds the analysis charge K — the realizable version of Eq. 2.

Soundness makes the static groups safe: a predicted set covers the
runtime set, so two truly conflicting transactions always land in the
same predicted group and execute sequentially in block order there.
As a safety net against *unsound* predictions the schedule still
validates with the runtime conflict relation: any true conflict
spanning two groups aborts the tasks involved, which re-run
sequentially in block order after the parallel phase.  On the golden
chain the net never fires — the differential harness pins zero
re-executions and state/receipt roots identical to the oracle
scheduler's.  Tasks with no prediction collapse the block into one
group, which degrades to sequential block-order execution, never to a
wrong result.  When every prediction equals its task's runtime sets
(:class:`~repro.execution.registry.BlockConflicts`) the groups are the
oracle's (``exact``), and the net, which could find nothing, is
skipped.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs
from repro.execution.conflict_partition import cross_group_conflicts
from repro.execution.engine import ExecutionReport, TxTask
from repro.execution.schedule import Segment, Wave
from repro.execution.simulator import CoreSimulator


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
    groups: Sequence[Sequence[TxTask]], k: float, *, exact: bool,
) -> ExecutionReport:
    """Run *groups* as sequential chains across lanes, as engine *name*.

    The chains dispatch largest total cost first; the charge *k* shifts
    the whole schedule right.  Unless the groups are the runtime
    partition itself (*exact*), the cross-group safety net sends its
    aborts to a sequential retry segment behind the makespan.  Records
    the chain count and sizes (``exec.<name>.groups`` /
    ``exec.<name>.group_size``).
    """
    ordered = [list(group) for group in groups if group]
    ordered.sort(key=lambda group: -sum(task.cost for task in group))
    run = CoreSimulator(cores).run_chains(ordered)
    aborted = [] if exact else cross_group_aborts(tasks, ordered)
    retry_time = sum(task.cost for task in aborted)
    if obs.measuring():
        obs.counter(f"exec.{name}.groups").inc(len(ordered))
        sizes = obs.histogram(f"exec.{name}.group_size")
        for group in ordered:
            sizes.observe(len(group))
    # One wave: every task has its chain-scheduled start, finish and
    # core; the aborts are stamped at their finish and retry on lane 0.
    return ExecutionReport(
        executor=name,
        cores=cores,
        wall_time=k + run.makespan + retry_time,
        total_work=sum(task.cost for task in tasks),
        num_tasks=len(tasks),
        reexecuted=len(aborted),
        aborts=len(aborted),
        rounds=2 if aborted else 1,
        schedule=(
            Wave(
                [task for group in ordered for task in group], run, k,
                aborted=aborted,
            ),
            Segment(aborted, k + run.makespan, 1, retry=True),
        ),
    )
