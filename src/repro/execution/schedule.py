"""A run's schedule, stated once: what every engine hands back.

Every engine simulates one of the paper's §V schedules on ``n`` lanes —
the §V-A two-phase bin, the §V-B group schedule, OCC's retry waves, the
DAG's precedence plan — and describes the run in one value, the
:attr:`~repro.execution.engine.ExecutionReport.schedule`: a tuple of
phases in the order the engine ran them.

* :class:`Wave` — tasks dispatched onto the lanes together, placed by a
  :class:`~repro.execution.simulator.SimulatedRun`, starting at
  ``offset``; the ``aborted`` subsequence failed validation.  Round 0
  takes the block's tasks from the queue; a later round re-queues the
  previous wave's aborts at its start (OCC).
* :class:`Segment` — tasks run back to back on lane 0 from ``offset``
  (the baseline, a two-phase bin, a retry tail); ``retry`` says the
  tasks re-execute rather than enter the queue fresh.
* :class:`Plan` — the DAG engine's precedence-constrained placement
  with the dependency edges it honoured.

This module owns the format and both readings of it:
:func:`schedule_commits`, the commit stream the replay builds its
records from, and :func:`timeline_rows`, the flight-recorder rows of
:mod:`repro.obs.timeline` that the Chrome trace, the critical-path
profiler and the lifecycle stitcher read.  Nothing is expanded while an
engine runs: a phase holds its task list and simulated run by
reference, and whoever reads a report pays for what it reads.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence, Union

from repro.obs.timeline import EDGE_SEPARATOR, QUEUE_LANE, EventRow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.execution.dag import DAGSchedule, DependencyDAG
    from repro.execution.engine import ExecutionReport
    from repro.execution.simulator import SimulatedRun

# One commit: the engine's logical clock when the task finished for
# good, and the task.  In the order the engine found them, not sorted.
Commit = tuple[float, str]


class Wave(NamedTuple):
    """Tasks run together on the lanes; see the module docstring."""

    tasks: Sequence  # dispatch order
    run: "SimulatedRun"
    offset: float = 0.0
    round: int = 0
    aborted: Sequence = ()


class Segment(NamedTuple):
    """Tasks run back to back on lane 0; see the module docstring."""

    tasks: Sequence
    offset: float = 0.0
    round: int = 0
    retry: bool = False


class Plan(NamedTuple):
    """The DAG engine's schedule: the DAG and its placement."""

    dag: "DependencyDAG"
    placement: "DAGSchedule"


Phase = Union[Wave, Segment, Plan]


def schedule_commits(schedule: Sequence[Phase]) -> list[Commit]:
    """Every task that finished for good, at its finish clock."""
    commits: list[Commit] = []
    for phase in schedule:
        if isinstance(phase, Wave):
            offset = phase.offset
            aborted = {task.tx_hash for task in phase.aborted}
            commits += [
                (offset + finish, tx_hash)
                for tx_hash, finish in phase.run.finish_times.items()
                if tx_hash not in aborted
            ]
        elif isinstance(phase, Segment):
            cursor = phase.offset
            for task in phase.tasks:
                cursor += task.cost
                commits.append((cursor, task.tx_hash))
        else:
            commits += [
                (finish, tx_hash)
                for tx_hash, finish in phase.placement.finish_times.items()
            ]
    return commits


def timeline_rows(
    report: "ExecutionReport", height: int | None
) -> list[EventRow]:
    """The flight-recorder rows of *report*'s run, stamped *height*.

    Per phase, in schedule order: a wave's queue events (``schedule``
    in round 0, ``retry`` after it), then its ``start`` rows, then its
    ``commit``/``abort`` rows; a segment's ``schedule`` (or ``retry``),
    ``start`` and ``commit`` task by task; a plan's ``schedule`` rows
    at each task's ready time, ``start``, ``commit``, then one ``edge``
    row per dependency at the predecessor's finish.
    """
    name = report.executor
    rows: list[EventRow] = []
    for phase in report.schedule:
        if isinstance(phase, Wave):
            tasks, run, offset, index, aborted = phase
            starts, finishes, lanes = (
                run.start_times, run.finish_times, run.core_of
            )
            queued = "schedule" if index == 0 else "retry"
            aborted_hashes = {task.tx_hash for task in aborted}
            rows += [
                (name, height, index, queued, task.tx_hash, QUEUE_LANE,
                 offset, 0.0)
                for task in tasks
            ]
            rows += [
                (name, height, index, "start", task.tx_hash,
                 lanes[task.tx_hash], offset + starts[task.tx_hash],
                 task.cost)
                for task in tasks
            ]
            rows += [
                (name, height, index,
                 "abort" if task.tx_hash in aborted_hashes else "commit",
                 task.tx_hash, lanes[task.tx_hash],
                 offset + finishes[task.tx_hash], task.cost)
                for task in tasks
            ]
        elif isinstance(phase, Segment):
            tasks, offset, index, retry = phase
            cursor = offset
            for task in tasks:
                if retry:
                    rows.append((name, height, index, "retry",
                                 task.tx_hash, QUEUE_LANE, cursor, 0.0))
                else:
                    rows.append((name, height, index, "schedule",
                                 task.tx_hash, QUEUE_LANE, offset, 0.0))
                rows.append((name, height, index, "start", task.tx_hash,
                             0, cursor, task.cost))
                cursor += task.cost
                rows.append((name, height, index, "commit", task.tx_hash,
                             0, cursor, task.cost))
        else:
            dag, placement = phase
            order, costs = dag.order, dag.costs
            lanes = placement.core_of
            finishes = placement.finish_times
            rows += [
                (name, height, 0, "schedule", tx_hash, QUEUE_LANE,
                 placement.ready_times[tx_hash], 0.0)
                for tx_hash in order
            ]
            rows += [
                (name, height, 0, "start", tx_hash, lanes[tx_hash],
                 placement.start_times[tx_hash], costs[tx_hash])
                for tx_hash in order
            ]
            rows += [
                (name, height, 0, "commit", tx_hash, lanes[tx_hash],
                 finishes[tx_hash], costs[tx_hash])
                for tx_hash in order
            ]
            rows += [
                (name, height, 0, "edge",
                 f"{pred}{EDGE_SEPARATOR}{succ}", QUEUE_LANE,
                 finishes[pred], 0.0)
                for pred in order
                for succ in sorted(dag.successors[pred])
            ]
    return rows


__all__ = [
    "Commit",
    "Phase",
    "Plan",
    "Segment",
    "Wave",
    "schedule_commits",
    "timeline_rows",
]
