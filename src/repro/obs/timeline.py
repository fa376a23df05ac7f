"""Execution flight recorder: per-task structured timeline events.

The executors in :mod:`repro.execution` simulate schedules — every task
gets a start time, a finish time and a core — and each states its run
once, as the :attr:`~repro.execution.engine.ExecutionReport.schedule`
value.  The flight recorder's view of a run is a stream of structured
events derived from that value
(:func:`repro.execution.schedule.timeline_rows`)::

    (seq, executor, block, round, kind, task, lane, clock, cost)

* ``kind`` is one of :data:`EVENT_KINDS` — ``schedule`` (the task
  entered a phase's work queue), ``start`` (a lane began executing it),
  ``abort`` (it finished but failed validation), ``retry`` (it was
  re-queued after an abort or binned for re-execution), ``commit``
  (it finished for good) and ``edge`` (a dependency handoff
  ``pred->succ`` recorded by the DAG executor; ``task`` carries both
  hashes joined by ``->`` and the exporters turn it into a Chrome
  trace flow arrow from the predecessor's commit to the successor's
  start).
* ``lane`` is the simulated worker lane (core index); ``-1`` marks
  events that are not tied to a lane (queue-side ``schedule``/``retry``).
* ``clock`` is the executor's *logical* clock in cost units — the same
  simulated time base as :class:`repro.execution.simulator.SimulatedRun`,
  so makespans and per-lane busy times recomputed from the events match
  the executor's reported wall time exactly.
* ``cost`` is the task's cost in the same units (0.0 on point events
  where it adds nothing).

Rows are plain tuples of primitives (:data:`EventRow`), so they pickle
cheaply; :func:`as_events` numbers them into :class:`TimelineEvent`
objects for the readers.  A run keeps its rows only where someone asked
for them: an instrumented state holds a plain list of them
(:func:`repro.obs.event_rows`), filled by the two writers that cannot
hand a report back — the fan-out's collection, from its recording
chunks, and a node proposing a block.  Everyone else reads a report.

Downstream consumers: :mod:`repro.obs.critical_path` recomputes
makespans, lane utilization and the empirical critical path from the
events, and :func:`repro.obs.exporters.chrome_trace_events` turns them
into a catapult/Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

EVENT_KINDS = ("schedule", "start", "abort", "retry", "commit", "edge")

EDGE_SEPARATOR = "->"

# One row: (executor, block, round, kind, task, lane, clock, cost).
# Events materialise to TimelineEvent only on read.
EventRow = tuple[str, "int | None", int, str, str, int, float, float]

QUEUE_LANE = -1


@dataclass(frozen=True)
class TimelineEvent:
    """One recorded scheduling event (see module docstring for fields)."""

    seq: int
    executor: str
    block: int | None
    round: int
    kind: str
    task: str
    lane: int
    clock: float
    cost: float


def as_events(rows: Iterable[EventRow]) -> list[TimelineEvent]:
    """*rows* as events, numbered in order."""
    return [
        TimelineEvent(seq, *row) for seq, row in enumerate(rows)
    ]


__all__ = [
    "EDGE_SEPARATOR",
    "EVENT_KINDS",
    "QUEUE_LANE",
    "EventRow",
    "TimelineEvent",
    "as_events",
]
