"""Execution-engine core: tasks, conflict relations, reports, baseline.

The paper's speed-up models (§V) reason about an execution engine that
did not exist yet ("we have not designed and implemented an execution
engine that can exploit the available concurrency").  This package
builds that engine in simulation: transactions become
:class:`TxTask` objects carrying a cost and read/write sets, and the
executors in :mod:`repro.execution.speculative`, :mod:`.grouped` and
:mod:`.occ` schedule them on a simulated multicore, so their measured
wall-clock can be compared against Eqs. 1-2.

What every engine shares lives here: the constructor check
(:func:`require`), the two sources of conflict information, as groups
of tasks (:func:`conflict_groups`, :func:`predicted_groups`), and the
one way a run ends (:func:`finish_run`).  What a run hands back is an
:class:`ExecutionReport`, commit stream included: the replay builds its
records from that value and never reads the flight recorder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Sequence

from repro import obs
from repro.obs.timeline import sequential_rows
from repro.account.receipts import ExecutedTransaction
from repro.core.tdg import TDGResult
from repro.execution.conflict_partition import conflict_partition
from repro.sets import EMPTY
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


# One commit: the engine's logical clock when the task finished for
# good, and the task.  In the order the engine found them, not sorted.
Commit = tuple[float, str]


@dataclass(frozen=True)
class ExecutionReport:
    """Outcome of running a block through an executor.

    ``commits`` is the run's commit stream, one :data:`Commit` per task
    that finished for good — the same clocks the flight recorder's
    ``commit`` rows carry, as a value: sorted by clock, block position
    breaking ties, it is the order the block's writes took effect.
    """

    executor: str
    cores: int
    wall_time: float
    total_work: float
    num_tasks: int
    reexecuted: int = 0
    aborts: int = 0
    rounds: int = 1
    commits: tuple[Commit, ...] = field(default=(), repr=False)

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
    """The constructor check of every engine: at least one core, and no
    negative charge K (keyword = the engine's field name, for the
    message)."""
    if cores < 1:
        raise ValueError("cores must be at least 1")
    for name, value in costs.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative")


def finish_run(
    name: str, cores: int, report: ExecutionReport | None = None
) -> ExecutionReport:
    """End a run: feed *report* into the metrics registry, return it.

    Shared by every executor so the snapshot carries a uniform
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


def sequential_commits(
    tasks: Sequence[TxTask], offset: float = 0.0
) -> list[Commit]:
    """Commits of *tasks* run back to back on one lane from *offset*."""
    commits: list[Commit] = []
    cursor = offset
    for task in tasks:
        cursor += task.cost
        commits.append((cursor, task.tx_hash))
    return commits


def wave_commits(
    run, aborted: Sequence[TxTask], offset: float = 0.0
) -> list[Commit]:
    """Commits of one simulated wave (a
    :class:`~repro.execution.simulator.SimulatedRun`) that started at
    *offset*: every task of it but the *aborted*, at its finish."""
    aborted_hashes = {task.tx_hash for task in aborted}
    return [
        (offset + finish, tx_hash)
        for tx_hash, finish in run.finish_times.items()
        if tx_hash not in aborted_hashes
    ]


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


class SequentialExecutor:
    """The baseline every blockchain client implements today (§II-A)."""

    name = "sequential"

    def run(self, tasks: Sequence[TxTask], cores: int = 1) -> ExecutionReport:
        """Execute in block order on one core; wall time is total work."""
        total = sum(task.cost for task in tasks)
        sequential_rows(obs.get_recorder(), self.name, tasks)
        return finish_run(self.name, 1, ExecutionReport(
            executor=self.name,
            cores=1,
            wall_time=total,
            total_work=total,
            num_tasks=len(tasks),
            commits=tuple(sequential_commits(tasks)),
        ))


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
    definition.  The static prediction of a UTXO block is this same set.
    """
    writes = {str(op) for op in tx.inputs}
    writes.update(str(op) for op in tx.outpoints_created())
    return frozenset(writes)


def tasks_from_account_block(
    executed: Sequence[ExecutedTransaction], *, unit_cost: bool = True
) -> list[TxTask]:
    """Tasks for an account block: balance cells plus storage accesses."""
    tasks: list[TxTask] = []
    for item in executed:
        if item.is_coinbase:
            continue
        writes = {f"balance:{item.tx.sender}", f"balance:{item.tx.receiver}"}
        for internal in item.receipt.internal_transactions:
            writes.add(f"balance:{internal.sender}")
            writes.add(f"balance:{internal.receiver}")
        writes.update(
            f"storage:{address}:{key}"
            for address, key in item.receipt.storage_writes
        )
        reads = {
            f"storage:{address}:{key}"
            for address, key in item.receipt.storage_reads
        }
        cost = 1.0 if unit_cost else max(1.0, item.gas_used / 21_000.0)
        tasks.append(
            TxTask(
                tx_hash=item.tx_hash,
                cost=cost,
                reads=frozenset(reads) if reads else EMPTY,
                writes=frozenset(writes),
            )
        )
    return tasks


def tasks_from_tdg(
    tdg: TDGResult, *, costs: dict[str, float] | None = None
) -> list[TxTask]:
    """Tasks whose conflict structure reproduces a TDG's partition.

    Each dependency group gets a private synthetic location written by
    all its members, so ``conflict_groups`` recovers exactly the TDG
    groups.  Used to drive the executors from address-level TDGs, whose
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
