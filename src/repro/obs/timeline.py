"""Execution flight recorder: per-task structured timeline events.

The executors in :mod:`repro.execution` simulate schedules — every task
gets a start time, a finish time and a core — but until now only
aggregate counters survived a run.  The flight recorder captures the
schedule itself as a stream of structured events::

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

Like the metrics registry, the recorder hangs off
the process-global observability state: the default
:data:`NOOP_RECORDER` drops everything, so the instrumented executors
cost one attribute check when recording is off.  When recording is
*on*, the hot path stays cheap by deferring: the per-phase helpers
(:func:`wave_rows` and friends) don't build per-task tuples at run
time — they enqueue one closure per phase capturing the immutable task
list and simulated run, and the closure expands into event rows lazily
on first read (:meth:`FlightRecorder.events`,
:meth:`FlightRecorder.dump_rows`).  An executor therefore pays
O(phases), not O(tasks), while executing; the expansion cost lands on
whoever reads — an exporter, the profiler, ``repro.cli timeline`` /
``regress``, an instrumented replay chunk shipping its rows to the
parent, a node sampling the block that became its head.  Nothing else
reads: the replay builds its records from the values the engines
return (:attr:`repro.execution.engine.ExecutionReport.commits`), so a
recorder nobody asks is a list of closures that is dropped unexpanded.
What an enabled recorder costs a whole run is measured, not budgeted
here: ``obs.enabled_overhead_ratio`` in the end-to-end ledger
(``benchmarks/e2e``) and the enabled-vs-no-op figure of
``benchmarks/bench_exec_timeline.py``.

Downstream consumers: :mod:`repro.obs.critical_path` recomputes
makespans, lane utilization and the empirical critical path from the
events, and :func:`repro.obs.exporters.chrome_trace_events` turns them
into a catapult/Perfetto-loadable Chrome trace.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

EVENT_KINDS = ("schedule", "start", "abort", "retry", "commit", "edge")

EDGE_SEPARATOR = "->"

# Internal storage row: (executor, block, round, kind, task, lane,
# clock, cost).  Events materialise to TimelineEvent only on read.
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

    def as_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "executor": self.executor,
            "block": self.block,
            "round": self.round,
            "kind": self.kind,
            "task": self.task,
            "lane": self.lane,
            "clock": self.clock,
            "cost": self.cost,
        }


class FlightRecorder:
    """Collects timeline events; thread-safe, append-only.

    Executors stamp events with the *current block* — set by wrapping
    each block's replay in :meth:`block` — so one recorder can capture a
    whole chain replay and still be sliced per block afterwards.
    """

    enabled = True

    def __init__(self) -> None:
        # _entries holds EventRow tuples and zero-arg thunks returning
        # lists of EventRows (the deferred batches); _rows caches their
        # expansion, extended incrementally: _expanded counts how many
        # entries have been materialised so far.  Writers only ever
        # list.append/extend (atomic under the GIL), so the hot
        # recording path takes no lock; readers serialise on _lock and
        # expand the entries that arrived since the last read.
        self._entries: list[object] = []
        self._rows: list[EventRow] = []
        self._expanded = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- block context --------------------------------------------------------

    @property
    def current_block(self) -> int | None:
        return getattr(self._local, "block", None)

    @contextmanager
    def block(self, height: int) -> Iterator["FlightRecorder"]:
        """Stamp events recorded inside the scope with *height*."""
        previous = getattr(self._local, "block", None)
        self._local.block = height
        try:
            yield self
        finally:
            self._local.block = previous

    # -- recording ------------------------------------------------------------

    def record(
        self,
        kind: str,
        task: str,
        *,
        executor: str,
        lane: int = QUEUE_LANE,
        clock: float = 0.0,
        cost: float = 0.0,
        round_index: int = 0,
        block: int | None = None,
    ) -> None:
        """Record one event (convenience form of :meth:`extend`)."""
        if kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {kind!r}; expected one of "
                f"{', '.join(EVENT_KINDS)}"
            )
        self.extend([(
            executor,
            block if block is not None else self.current_block,
            round_index, kind, task, lane, clock, cost,
        )])

    def extend(self, rows: Sequence[EventRow]) -> None:
        """Append pre-built event rows (the eager batch path)."""
        self._entries.extend(rows)

    def defer(self, thunk) -> None:
        """Enqueue a zero-arg callable producing rows, expanded on read.

        This is the hot path's O(1)-per-phase entry: the executors'
        helpers capture their (immutable) task lists and simulated runs
        in a closure here instead of building per-task tuples while the
        clock is running.  A single ``list.append`` — no lock, no cache
        invalidation.
        """
        self._entries.append(thunk)

    # -- reading --------------------------------------------------------------

    def _materialised(self) -> list[EventRow]:
        """Expand deferred batches added since the last read (cached)."""
        with self._lock:
            fresh = self._entries[self._expanded:]
            if fresh:
                self._expanded += len(fresh)
                rows = self._rows
                for entry in fresh:
                    if callable(entry):
                        rows.extend(entry())
                    else:
                        rows.append(entry)  # type: ignore[arg-type]
            return self._rows

    def __len__(self) -> int:
        return len(self._materialised())

    def events(
        self,
        *,
        executor: str | None = None,
        block: int | None = None,
        kind: str | None = None,
    ) -> list[TimelineEvent]:
        """Materialised events in record order, optionally filtered."""
        rows = self._materialised()
        out: list[TimelineEvent] = []
        for seq, row in enumerate(rows):
            row_exec, row_block, round_index, row_kind, task, lane, \
                clock, cost = row
            if executor is not None and row_exec != executor:
                continue
            if block is not None and row_block != block:
                continue
            if kind is not None and row_kind != kind:
                continue
            out.append(TimelineEvent(
                seq=seq, executor=row_exec, block=row_block,
                round=round_index, kind=row_kind, task=task, lane=lane,
                clock=clock, cost=cost,
            ))
        return out

    def dump_rows(self) -> list[EventRow]:
        """Materialised rows as a picklable snapshot.

        The parallel-replay workers ship their private recorder's rows
        back to the parent this way; the parent replays them with
        :meth:`extend`, so a fanned-out chain replay reads identically
        to a serial one (``events()``, exporters, the regress snapshot
        all see the same stream).  Rows are plain tuples of primitives,
        so the snapshot pickles without dragging task objects along.
        """
        return list(self._materialised())

    def blocks(self) -> list[int | None]:
        """Distinct block heights in first-appearance order."""
        seen: dict[int | None, None] = {}
        for row in self._materialised():
            seen.setdefault(row[1])
        return list(seen)

    def executors(self) -> list[str]:
        """Distinct executor names in first-appearance order."""
        seen: dict[str, None] = {}
        for row in self._materialised():
            seen.setdefault(row[0])
        return list(seen)

    def clear(self) -> None:
        with self._lock:
            self._entries = []
            self._rows = []
            self._expanded = 0


class NoopFlightRecorder(FlightRecorder):
    """The disabled recorder: drops everything, reads as empty."""

    enabled = False

    def record(self, kind: str, task: str, **kwargs: object) -> None:  # type: ignore[override]
        pass

    def extend(self, rows: Sequence[EventRow]) -> None:
        pass

    def defer(self, thunk) -> None:
        pass

    def events(self, **filters: object) -> list[TimelineEvent]:  # type: ignore[override]
        return []

    def dump_rows(self) -> list[EventRow]:
        return []


NOOP_RECORDER = NoopFlightRecorder()


# -- batch emission helpers (what the executors call) -------------------------
#
# These take the executor-agnostic pieces a simulated run produces —
# per-task start/finish/lane maps — and record them as ONE deferred
# batch: the call costs a closure append under the recorder lock, and
# the per-task event rows are built lazily when the recorder is read.
# They deliberately avoid importing from repro.execution (the executors
# import repro.obs, so a module-level import here would be circular);
# any object with .start_times/.finish_times/.core_of duck-types as a
# run, any object with .tx_hash/.cost as a task.  The task sequences
# and runs are captured BY REFERENCE — no defensive copies, that is
# what keeps an OCC run with hundreds of retry waves inside the
# overhead budget — so callers must not mutate them after the call.
# The executors satisfy this by construction: every wave/bin/retry list
# is built fresh per round and only ever reassigned, never extended
# after its helper call.


def wave_rows(
    recorder: FlightRecorder,
    executor: str,
    tasks: Sequence,
    run,
    *,
    offset: float = 0.0,
    round_index: int = 0,
    aborted: Sequence = (),
    scheduled: bool = True,
) -> None:
    """Record one parallel wave: schedule / start / commit-or-abort.

    ``aborted`` is the subsequence of *tasks* whose finish is an
    ``abort`` instead of a ``commit``; ``scheduled=False`` suppresses
    the queue-side schedule events (for waves whose tasks were already
    queued earlier and re-enter on a ``retry`` event instead; OCC's
    retry waves are recorded whole by :func:`wave_log_rows`).
    """
    if not recorder.enabled or not tasks:
        return
    block = recorder.current_block

    def expand() -> list[EventRow]:
        starts = run.start_times
        finishes = run.finish_times
        lanes = run.core_of
        aborted_hashes = {task.tx_hash for task in aborted}
        rows: list[EventRow] = []
        if scheduled:
            rows.extend(
                (executor, block, round_index, "schedule", task.tx_hash,
                 QUEUE_LANE, offset, 0.0)
                for task in tasks
            )
        rows.extend(
            (executor, block, round_index, "start", task.tx_hash,
             lanes[task.tx_hash], offset + starts[task.tx_hash],
             task.cost)
            for task in tasks
        )
        rows.extend(
            (executor, block, round_index,
             "abort" if task.tx_hash in aborted_hashes else "commit",
             task.tx_hash, lanes[task.tx_hash],
             offset + finishes[task.tx_hash], task.cost)
            for task in tasks
        )
        return rows

    recorder.defer(expand)


def sequential_rows(
    recorder: FlightRecorder,
    executor: str,
    tasks: Sequence,
    *,
    offset: float = 0.0,
    round_index: int = 0,
    lane: int = 0,
    retry: bool = False,
) -> None:
    """Record a sequential segment (a bin replay, the baseline run).

    Tasks run back-to-back on *lane* starting at *offset*.  With
    ``retry=True`` each task gets a ``retry`` event at its start instead
    of a ``schedule`` event at the segment start (the speculative bin
    and OCC re-queues re-execute known tasks; fresh segments schedule).
    """
    if not recorder.enabled or not tasks:
        return
    block = recorder.current_block

    def expand() -> list[EventRow]:
        rows: list[EventRow] = []
        cursor = offset
        for task in tasks:
            if retry:
                rows.append((executor, block, round_index, "retry",
                             task.tx_hash, QUEUE_LANE, cursor, 0.0))
            else:
                rows.append((executor, block, round_index, "schedule",
                             task.tx_hash, QUEUE_LANE, offset, 0.0))
            rows.append((executor, block, round_index, "start",
                         task.tx_hash, lane, cursor, task.cost))
            cursor += task.cost
            rows.append((executor, block, round_index, "commit",
                         task.tx_hash, lane, cursor, task.cost))
        return rows

    recorder.defer(expand)


def wave_log_rows(
    recorder: FlightRecorder,
    executor: str,
    log: Sequence,
) -> None:
    """Record a whole multi-wave retry loop (the OCC engine) at once.

    *log* holds one ``(tasks, run, offset, retried)`` entry per wave:
    the pending tasks, their simulated run, the wave's logical start
    offset, and the subsequence that aborted and re-queues.  Wave 0
    schedules every task; wave ``i``'s aborts emit ``retry`` events at
    the wave boundary with ``round_index = i + 1``, matching what a
    per-wave :func:`wave_rows` call plus one ``retry`` row per abort
    would record.
    One deferred closure covers the entire run, so an engine with
    hundreds of retry waves pays a single ``list.append`` per wave plus
    one per run, instead of two helper calls per wave.
    """
    if not recorder.enabled or not log:
        return
    block = recorder.current_block

    def expand() -> list[EventRow]:
        rows: list[EventRow] = []
        for index, (tasks, run, offset, retried) in enumerate(log):
            starts = run.start_times
            finishes = run.finish_times
            lanes = run.core_of
            aborted_hashes = {task.tx_hash for task in retried}
            if index == 0:
                rows.extend(
                    (executor, block, 0, "schedule", task.tx_hash,
                     QUEUE_LANE, offset, 0.0)
                    for task in tasks
                )
            rows.extend(
                (executor, block, index, "start", task.tx_hash,
                 lanes[task.tx_hash], offset + starts[task.tx_hash],
                 task.cost)
                for task in tasks
            )
            rows.extend(
                (executor, block, index,
                 "abort" if task.tx_hash in aborted_hashes else "commit",
                 task.tx_hash, lanes[task.tx_hash],
                 offset + finishes[task.tx_hash], task.cost)
                for task in tasks
            )
            boundary = offset + run.makespan
            rows.extend(
                (executor, block, index + 1, "retry", task.tx_hash,
                 QUEUE_LANE, boundary, 0.0)
                for task in retried
            )
        return rows

    recorder.defer(expand)


__all__ = [
    "EDGE_SEPARATOR",
    "EVENT_KINDS",
    "NOOP_RECORDER",
    "QUEUE_LANE",
    "EventRow",
    "FlightRecorder",
    "NoopFlightRecorder",
    "TimelineEvent",
    "sequential_rows",
    "wave_log_rows",
    "wave_rows",
]
