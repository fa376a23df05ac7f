"""Critical-path profiling of recorded execution timelines.

The flight-recorder rows (:mod:`repro.obs.timeline`) of a run's
schedule say *what the executor actually did*: which task ran on which
lane, when, and whether it committed.  This module turns that event
stream back into the quantities the paper reasons about analytically:

* **empirical makespan** — the last finish clock, which must equal the
  executor's reported wall time (the events are the schedule);
* **per-lane utilization** — busy time over makespan for each lane,
  exposing the stragglers Eq. 1's ``floor(x/n) + 1`` term models;
* **empirical critical path** — the longest chain of executions linked
  by ``finish == start`` hand-offs, the measured counterpart of the
  LCC-sequential assumption behind Eq. 2;
* **measured-vs-analytical bounds** — the observed speed-up next to
  Eq. 1 ``R = x/(⌊x/n⌋ + 1 + c·x)`` and Eq. 2 ``R = min(n, 1/l)``,
  with ``x``/``c``/``l`` derived from the *same* runtime conflict
  relation the executors use (:func:`repro.execution.engine.conflict_groups`),
  so both sides of the comparison share one ground truth.

Which executors the Eq. 2 bound actually binds: the sequential,
two-phase and chain schedules serialize every conflict component, so
their measured speed-up can never exceed ``min(n, 1/l)`` under unit
costs (:data:`EQ2_STRICT_EXECUTORS`, derived from the engine table in
:mod:`repro.execution.registry`; asserted in tests and counted per
engine by ``repro replay``).
The OCC and DAG engines exploit the partial order *inside* a component
and may legitimately beat the bound — the LCC-sequential assumption is
pessimistic for them (see :mod:`repro.execution.dag`), so they are
flagged, not failed.

Import direction: this module imports :mod:`repro.execution` and
:mod:`repro.core.speedup`, therefore :mod:`repro.obs.__init__` must
never import it (the executors import ``repro.obs``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

from repro.core.speedup import group_speedup_bound, speculative_speedup
from repro.execution.engine import ExecutionReport, TxTask, conflict_groups
from repro.execution.registry import EQ2_STRICT_EXECUTORS
from repro.obs.timeline import TimelineEvent

_EPS = 1e-9


@dataclass(frozen=True)
class Execution:
    """One matched start/finish pair from the event stream."""

    task: str
    lane: int
    round: int
    start: float
    finish: float
    cost: float
    committed: bool


@dataclass(frozen=True)
class LaneStats:
    """Busy time and task count for one worker lane."""

    lane: int
    busy: float
    executions: int
    utilization: float


@dataclass(frozen=True)
class TimelineProfile:
    """Everything the profiler recomputes from one event slice."""

    executor: str
    blocks: tuple[int | None, ...]
    executions: int
    committed: int
    aborted: int
    retries: int
    rounds: int
    makespan: float
    total_cost: float
    useful_cost: float
    lanes: tuple[LaneStats, ...]
    critical_chain: tuple[str, ...]
    critical_chain_cost: float

    @property
    def mean_utilization(self) -> float:
        if not self.lanes:
            return 0.0
        return sum(s.utilization for s in self.lanes) / len(self.lanes)

    def as_dict(self) -> dict[str, object]:
        return {
            "executor": self.executor,
            "blocks": list(self.blocks),
            "executions": self.executions,
            "committed": self.committed,
            "aborted": self.aborted,
            "retries": self.retries,
            "rounds": self.rounds,
            "makespan": self.makespan,
            "total_cost": self.total_cost,
            "useful_cost": self.useful_cost,
            "mean_utilization": self.mean_utilization,
            "lanes": [
                {
                    "lane": s.lane,
                    "busy": s.busy,
                    "executions": s.executions,
                    "utilization": s.utilization,
                }
                for s in self.lanes
            ],
            "critical_chain": list(self.critical_chain),
            "critical_chain_cost": self.critical_chain_cost,
        }


def extract_executions(
    events: Sequence[TimelineEvent],
) -> list[Execution]:
    """Pair ``start`` events with their ``commit``/``abort`` finishes.

    An execution is keyed by ``(task, round, lane)`` — a task aborted in
    round 0 and re-run in round 1 yields two executions.  Unfinished
    starts (no matching finish) are dropped; a finish without a start is
    a malformed stream and raises ``ValueError``.
    """
    open_starts: dict[tuple[str, int, int], TimelineEvent] = {}
    executions: list[Execution] = []
    for event in events:
        key = (event.task, event.round, event.lane)
        if event.kind == "start":
            open_starts[key] = event
        elif event.kind in ("commit", "abort"):
            begun = open_starts.pop(key, None)
            if begun is None:
                raise ValueError(
                    f"{event.kind} without start for task {event.task!r} "
                    f"round {event.round} lane {event.lane}"
                )
            executions.append(Execution(
                task=event.task,
                lane=event.lane,
                round=event.round,
                start=begun.clock,
                finish=event.clock,
                cost=event.cost,
                committed=event.kind == "commit",
            ))
    return executions


def longest_handoff_chain(
    executions: Sequence[Execution], *, eps: float = _EPS
) -> tuple[tuple[str, ...], float]:
    """The empirical critical path: back-walk ``finish == start`` links.

    Starting from the last-finishing execution, repeatedly step to a
    predecessor whose finish coincides (within *eps*) with the current
    start — preferring the costliest, then the earliest-starting
    candidate — until no link exists.  Returns the chain's task names in
    execution order and its summed cost.
    """
    if not executions:
        return (), 0.0
    # Positions sorted by finish clock, so a step looks only at the
    # executions that finish around the current start.
    by_finish = sorted(
        range(len(executions)), key=lambda i: executions[i].finish
    )
    finishes = [executions[i].finish for i in by_finish]
    last = max(
        range(len(executions)),
        key=lambda i: (executions[i].finish, executions[i].cost, -i),
    )
    chain = [last]
    used = {last}
    while True:
        start = executions[chain[-1]].start
        # A window twice as wide as the test below, so rounding in the
        # window's bounds cannot cut off an execution the test accepts.
        low = bisect_left(finishes, start - 2 * eps)
        high = bisect_right(finishes, start + 2 * eps)
        candidates = [
            i for i in by_finish[low:high]
            if i not in used and abs(executions[i].finish - start) <= eps
        ]
        if not candidates:
            break
        # Among equal (cost, -start) the earliest in *executions* wins.
        best = max(
            candidates,
            key=lambda i: (executions[i].cost, -executions[i].start, -i),
        )
        chain.append(best)
        used.add(best)
    chain = [executions[i] for i in reversed(chain)]
    return tuple(e.task for e in chain), sum(e.cost for e in chain)


def profile_events(
    events: Sequence[TimelineEvent], *, executor: str | None = None
) -> TimelineProfile:
    """Recompute makespan, lane stats and the critical chain from events.

    *events* should be one executor's slice (pass ``executor=`` to
    filter here instead); clocks are taken as absolute, so the makespan
    is simply the latest finish.
    """
    if executor is not None:
        events = [e for e in events if e.executor == executor]
    names = {e.executor for e in events}
    if len(names) > 1:
        raise ValueError(
            f"events span executors {sorted(names)}; profile one at a time"
        )
    executions = extract_executions(events)
    retries = sum(1 for e in events if e.kind == "retry")
    makespan = max((e.finish for e in executions), default=0.0)
    busy: dict[int, float] = {}
    counts: dict[int, int] = {}
    for execution in executions:
        busy[execution.lane] = busy.get(execution.lane, 0.0) \
            + execution.cost
        counts[execution.lane] = counts.get(execution.lane, 0) + 1
    lanes = tuple(
        LaneStats(
            lane=lane,
            busy=busy[lane],
            executions=counts[lane],
            utilization=busy[lane] / makespan if makespan > 0 else 0.0,
        )
        for lane in sorted(busy)
    )
    chain, chain_cost = longest_handoff_chain(executions)
    blocks: dict[int | None, None] = {}
    for event in events:
        blocks.setdefault(event.block)
    return TimelineProfile(
        executor=names.pop() if names else (executor or ""),
        blocks=tuple(blocks),
        executions=len(executions),
        committed=sum(1 for e in executions if e.committed),
        aborted=sum(1 for e in executions if not e.committed),
        retries=retries,
        rounds=1 + max((e.round for e in executions), default=0),
        makespan=makespan,
        total_cost=sum(e.cost for e in executions),
        useful_cost=sum(e.cost for e in executions if e.committed),
        lanes=lanes,
        critical_chain=chain,
        critical_chain_cost=chain_cost,
    )


# -- measured vs analytical ---------------------------------------------------


@dataclass(frozen=True)
class ConflictProfile:
    """The paper's block parameters derived from the runtime conflicts.

    ``x`` transactions, of which ``conflicted`` sit in a multi-member
    conflict group (rate ``c = conflicted/x``); the largest group has
    ``lcc`` members (relative size ``l = lcc/x``).  Derived with
    :func:`repro.execution.engine.conflict_groups`, i.e. the same
    relation the executors validate against.
    """

    x: int
    conflicted: int
    lcc: int

    @property
    def c(self) -> float:
        return self.conflicted / self.x if self.x else 0.0

    @property
    def l(self) -> float:  # noqa: E741 - the paper's symbol
        return self.lcc / self.x if self.x else 0.0


def task_conflict_profile(tasks: Sequence[TxTask]) -> ConflictProfile:
    """Measure ``x`` / ``c`` / ``l`` for one block's task set."""
    groups = conflict_groups(tasks)
    conflicted = sum(len(g) for g in groups if len(g) > 1)
    lcc = max((len(g) for g in groups), default=0)
    return ConflictProfile(x=len(tasks), conflicted=conflicted, lcc=lcc)


@dataclass(frozen=True)
class BoundComparison:
    """One block's measured speed-up next to the Eq. 1 / Eq. 2 values."""

    executor: str
    cores: int
    measured: float
    eq1: float
    eq2: float
    strict: bool

    @property
    def within_eq2(self) -> bool:
        return self.measured <= self.eq2 + 1e-9

    def as_dict(self) -> dict[str, object]:
        return {
            "executor": self.executor,
            "cores": self.cores,
            "measured": self.measured,
            "eq1": self.eq1,
            "eq2": self.eq2,
            "strict": self.strict,
            "within_eq2": self.within_eq2,
        }


def compare_to_bounds(
    report: ExecutionReport, profile: ConflictProfile
) -> BoundComparison:
    """Put a report's measured speed-up next to its analytical bounds."""
    if profile.x:
        eq1 = speculative_speedup(profile.x, report.cores, profile.c)
        eq2 = group_speedup_bound(report.cores, profile.l)
    else:
        eq1 = 1.0
        eq2 = float(report.cores)
    return BoundComparison(
        executor=report.executor,
        cores=report.cores,
        measured=report.speedup,
        eq1=eq1,
        eq2=eq2,
        strict=report.executor in EQ2_STRICT_EXECUTORS,
    )


__all__ = [
    "EQ2_STRICT_EXECUTORS",
    "BoundComparison",
    "ConflictProfile",
    "Execution",
    "LaneStats",
    "TimelineProfile",
    "compare_to_bounds",
    "extract_executions",
    "longest_handoff_chain",
    "profile_events",
    "task_conflict_profile",
]
