"""Execution-engine core: tasks, conflict relations, reports, baseline.

The paper's speed-up models (§V) reason about an execution engine that
did not exist yet ("we have not designed and implemented an execution
engine that can exploit the available concurrency").  This package
builds that engine in simulation: transactions become
:class:`TxTask` objects carrying a cost and read/write sets, and the
schedules in :mod:`repro.execution.speculative`, :mod:`.grouped`,
:mod:`.occ` and :mod:`.dag` place them on a simulated multicore, so
their measured wall-clock can be compared against Eqs. 1-2.  An engine
is a row of :data:`repro.execution.registry.ENGINE_SPECS`, and
:func:`repro.execution.registry.run_engine` runs it.

What every engine shares lives here: the argument check
(:func:`require`), the two sources of conflict information, as groups
of tasks (:func:`conflict_groups`, :func:`predicted_groups`), the
baseline schedule (:func:`sequential`) and the one way a run ends
(:func:`finish_run`).  What a run hands back is an
:class:`ExecutionReport` carrying the run's schedule
(:mod:`repro.execution.schedule`): the replay builds its records from
the commit stream derived from it, and whoever wants the run's
flight-recorder rows derives those from the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.core.tdg import TDGResult
from repro.execution.conflict_partition import conflict_partition
from repro.execution.schedule import Commit, Phase, Segment, schedule_commits
from repro.sets import (
    EMPTY,
    access_set,
    balance_location,
    storage_location,
)
from repro.utxo.transaction import UTXOTransaction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.staticcheck.predict import PredictedAccess

# What the static engines are handed: ``tx_hash`` → its predicted sets.
Predictions = Mapping[str, "PredictedAccess"]


@dataclass(frozen=True)
class TxTask:
    """One schedulable transaction.

    Attributes:
        tx_hash: identifier.
        cost: execution time in abstract units (1.0 = the paper's
            unit-cost assumption; gas-proportional costs are an
            extension the benches exercise).
        reads: locations read.
        writes: locations written.  Two tasks conflict when one writes
            a location the other reads or writes.
    """

    tx_hash: str
    cost: float = 1.0
    reads: frozenset[str] = EMPTY
    writes: frozenset[str] = EMPTY

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError("cost must be non-negative")

    def conflicts_with(self, other: "TxTask") -> bool:
        """Storage-level conflict test (write/write or read/write)."""
        if self.writes & other.writes:
            return True
        if self.writes & other.reads:
            return True
        if self.reads & other.writes:
            return True
        return False


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of running a block through an engine.

    ``schedule`` is the run itself, phase by phase
    (:mod:`repro.execution.schedule`); it takes no part in equality.
    """

    executor: str
    cores: int
    wall_time: float
    total_work: float
    num_tasks: int
    reexecuted: int = 0
    aborts: int = 0
    rounds: int = 1
    schedule: tuple[Phase, ...] = field(
        default=(), repr=False, compare=False
    )

    @property
    def commits(self) -> list[Commit]:
        """The run's commit stream, one :data:`Commit` per task that
        finished for good: sorted by clock, block position breaking
        ties, it is the order the block's writes took effect."""
        return schedule_commits(self.schedule)

    @property
    def speedup(self) -> float:
        """Sequential time over parallel wall time (the paper's R)."""
        if self.wall_time == 0:
            return 1.0
        return self.total_work / self.wall_time

    @property
    def efficiency(self) -> float:
        """Speed-up per core."""
        return self.speedup / self.cores


def require(cores: int, **costs: float) -> None:
    """The argument check of every run: at least one core, and no
    negative charge (keyword = the argument's name, for the message)."""
    if cores < 1:
        raise ValueError("cores must be at least 1")
    for name, value in costs.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


def finish_run(
    name: str, cores: int, report: ExecutionReport | None = None
) -> ExecutionReport:
    """End a run: feed *report* into the metrics registry, return it.

    Shared by every engine so the snapshot carries a uniform
    ``exec.*`` family (runs, tasks, aborts, re-executions, wall-time
    and utilization distributions) labelled by executor and core count.
    With no report — an empty block, which runs nothing and records
    nothing — the all-zero report is returned.
    """
    if report is None:
        return ExecutionReport(
            executor=name,
            cores=cores,
            wall_time=0.0,
            total_work=0.0,
            num_tasks=0,
        )
    if not obs.measuring():
        return report
    labels = {"executor": name, "cores": cores}
    obs.counter("exec.runs", **labels).inc()
    obs.counter("exec.tasks", **labels).inc(report.num_tasks)
    obs.counter("exec.aborts", **labels).inc(report.aborts)
    obs.counter("exec.reexecuted", **labels).inc(report.reexecuted)
    obs.counter("exec.rounds", **labels).inc(report.rounds)
    obs.histogram("exec.wall_time", **labels).observe(report.wall_time)
    if report.num_tasks:
        obs.histogram("exec.speedup", **labels).observe(report.speedup)
        obs.histogram("exec.core_utilization", **labels).observe(
            report.efficiency
        )
    return report


def conflict_groups(tasks: Sequence[TxTask]) -> list[list[TxTask]]:
    """Partition *tasks* into storage-conflict groups.

    Groups in first-seen order, members in block order; the work is
    :func:`repro.execution.conflict_partition.conflict_partition`'s.
    """
    if obs.measuring():
        obs.counter("exec.conflict_checks").inc(
            sum(len(task.reads) + len(task.writes) for task in tasks)
        )
    return [
        [tasks[index] for index in group]
        for group in conflict_partition(tasks)
    ]


def predicted_groups(
    predictions: Predictions, tasks: Sequence[TxTask]
) -> list[list[TxTask]]:
    """Partition *tasks* by the conflicts of their *predicted* sets.

    Same order as :func:`conflict_groups` — groups first-seen, members
    in block order, so a group run as a sequential chain preserves the
    block's commit order, which is what makes the result state-root-
    equivalent to sequential execution when the predictions are sound.
    A task with no prediction is "may touch anything" (sound,
    maximally pessimistic): it collapses the block into one group.
    """
    # Imported here: repro.staticcheck.predict imports this package.
    from repro.staticcheck.predict import unknown_access

    items = []
    for task in tasks:
        found = predictions.get(task.tx_hash)
        items.append(
            found if found is not None else unknown_access(task.tx_hash)
        )
    return [
        [tasks[index] for index in group]
        for group in conflict_partition(items)
    ]


def sequential(tasks: Sequence[TxTask]) -> ExecutionReport:
    """The baseline every blockchain client implements today (§II-A):
    block order on one core, so the wall time is the total work."""
    total = sum(task.cost for task in tasks)
    return ExecutionReport(
        executor="sequential",
        cores=1,
        wall_time=total,
        total_work=total,
        num_tasks=len(tasks),
        schedule=(Segment(tasks),),
    )


# -- task adapters ------------------------------------------------------------


def tasks_from_utxo_block(
    transactions: Sequence[UTXOTransaction], *, unit_cost: bool = True
) -> list[TxTask]:
    """Tasks for a UTXO block: every access is a write (:func:`utxo_writes`).

    Coinbases are excluded, matching the TDG convention.
    """
    tasks: list[TxTask] = []
    for tx in transactions:
        if tx.is_coinbase:
            continue
        cost = 1.0 if unit_cost else max(1.0, len(tx.inputs) + len(tx.outputs))
        tasks.append(
            TxTask(
                tx_hash=tx.tx_hash,
                cost=cost,
                reads=EMPTY,
                writes=utxo_writes(tx),
            )
        )
    return tasks


def utxo_writes(tx: UTXOTransaction) -> frozenset[str]:
    """The locations a UTXO transaction writes, as ``<tx_hash>:<index>``.

    An input outpoint is a read-modify-write of the UTXO set entry, so
    inputs are placed in the write set; created outputs are writes by
    definition.  The set is built once, on the first call, and kept on
    the transaction: its task and its static prediction hold this same
    frozenset, and every location in it is the outpoint's own string.
    """
    writes = tx._writes
    if writes is None:
        # Copying a set sizes the frozenset's table to fit; one grown
        # element by element from a list keeps a larger table.
        writes = frozenset({
            *map(str, tx.inputs), *map(str, tx.outpoints_created())
        })
        object.__setattr__(tx, "_writes", writes)
    return writes


def tasks_from_account_block(
    executed: Sequence[ExecutedTransaction], *, unit_cost: bool = True
) -> list[TxTask]:
    """Tasks for an account block: balance cells plus storage accesses.

    Locations and sets come from :mod:`repro.sets`, so a task holds the
    same objects as every other task and prediction naming them.
    """
    tasks: list[TxTask] = []
    for item in executed:
        if item.is_coinbase:
            continue
        writes = {
            balance_location(item.tx.sender),
            balance_location(item.tx.receiver),
        }
        for internal in item.receipt.internal_transactions:
            writes.add(balance_location(internal.sender))
            writes.add(balance_location(internal.receiver))
        writes.update(
            storage_location(address, key)
            for address, key in item.receipt.storage_writes
        )
        reads = {
            storage_location(address, key)
            for address, key in item.receipt.storage_reads
        }
        cost = 1.0 if unit_cost else max(1.0, item.gas_used / 21_000.0)
        tasks.append(
            TxTask(
                tx_hash=item.tx_hash,
                cost=cost,
                reads=access_set(reads),
                writes=access_set(writes),
            )
        )
    return tasks


def tasks_from_tdg(
    tdg: TDGResult, *, costs: dict[str, float] | None = None
) -> list[TxTask]:
    """Tasks whose conflict structure reproduces a TDG's partition.

    Each dependency group gets a private synthetic location written by
    all its members, so ``conflict_groups`` recovers exactly the TDG
    groups.  Used to drive the engines from address-level TDGs, whose
    conflicts are coarser than storage-level ones.
    """
    tasks: list[TxTask] = []
    for group_index, group in enumerate(tdg.groups):
        location = f"group:{group_index}"
        for tx_hash in group:
            cost = 1.0 if costs is None else costs.get(tx_hash, 1.0)
            writes = (
                frozenset({location})
                if len(group) > 1
                else frozenset({f"solo:{tx_hash}"})
            )
            tasks.append(
                TxTask(tx_hash=tx_hash, cost=cost, writes=writes)
            )
    return tasks
