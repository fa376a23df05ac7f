"""Dependency-DAG execution: how pessimistic is the LCC assumption?

The paper's group model treats each connected component as strictly
sequential: "the size of largest connected component is the largest
number of transactions that need to be executed sequentially" (§V-B).
That is an over-approximation.  The true constraint inside a component
is a *partial order*, over the block's task sets in block order:

* UTXO model — transaction ``b`` must follow ``a`` only when ``b``
  spends an output ``a`` creates.  A fan-out's children are mutually
  independent: a 25-transaction component whose shape is one parent
  plus 24 children has critical path 2, not 25.
* account model — two transactions must be ordered only when they
  share a location of the task sets (a balance cell, or a storage slot
  one of them writes).  A pure exchange fan-in really is sequential
  (every deposit writes the same balance), so for account chains the
  paper's assumption is tight; for UTXO chains it is loose.

:func:`task_dag` builds the partial order, :class:`DependencyDAG`
computes the critical path and schedules it on ``n`` cores with
precedence-constrained list scheduling, and :class:`DAGExecutor` is the
``dag`` engine.  The bench compares the resulting speed-ups against the
chain-per-component model (Eq. 2's basis).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.execution.engine import ExecutionReport, TxTask, finish_run, require
from repro.execution.schedule import Plan


@dataclass(frozen=True)
class DAGSchedule:
    """A concrete precedence-constrained schedule on ``cores`` lanes.

    Shares the field vocabulary of
    :class:`repro.execution.simulator.SimulatedRun` (``start_times`` /
    ``finish_times`` / ``core_of``) so timeline tooling consumes both;
    ``ready_times`` additionally records when each task's last
    predecessor finished (0.0 for sources).
    """

    cores: int
    makespan: float
    start_times: dict[str, float]
    finish_times: dict[str, float]
    core_of: dict[str, int]
    ready_times: dict[str, float]


@dataclass
class DependencyDAG:
    """A precedence DAG over one block's transactions.

    Edges ``u -> v`` mean v must execute after u.  Construction
    guarantees acyclicity by only adding edges from earlier to later
    block positions.
    """

    order: list[str] = field(default_factory=list)
    costs: dict[str, float] = field(default_factory=dict)
    successors: dict[str, set[str]] = field(default_factory=dict)
    predecessors: dict[str, set[str]] = field(default_factory=dict)
    # tx_hash -> index in ``order``; what orients an edge.
    position: dict[str, int] = field(default_factory=dict)

    def add_task(self, tx_hash: str, cost: float = 1.0) -> None:
        if tx_hash in self.costs:
            raise ValueError(f"duplicate task {tx_hash!r}")
        if cost < 0:
            raise ValueError("cost must be non-negative")
        self.position[tx_hash] = len(self.order)
        self.order.append(tx_hash)
        self.costs[tx_hash] = cost
        self.successors[tx_hash] = set()
        self.predecessors[tx_hash] = set()

    def add_edge(self, earlier: str, later: str) -> None:
        if earlier not in self.costs or later not in self.costs:
            raise KeyError("both endpoints must be tasks")
        if earlier == later:
            return
        if self.position[earlier] > self.position[later]:
            earlier, later = later, earlier
        self.successors[earlier].add(later)
        self.predecessors[later].add(earlier)

    def __len__(self) -> int:
        return len(self.order)

    @property
    def total_work(self) -> float:
        return sum(self.costs.values())

    def critical_path(self) -> float:
        """Length of the longest cost-weighted path (infinite cores)."""
        finish: dict[str, float] = {}
        for tx_hash in self.order:  # block order is a topological order
            ready = max(
                (finish[p] for p in self.predecessors[tx_hash]),
                default=0.0,
            )
            finish[tx_hash] = ready + self.costs[tx_hash]
        return max(finish.values(), default=0.0)

    def _by_position(self) -> tuple[list[float], list[list[int]]]:
        """Costs and successor lists indexed by block position."""
        position, successors = self.position, self.successors
        return [self.costs[h] for h in self.order], [
            [position[s] for s in successors[h]] for h in self.order
        ]

    def schedule(self, cores: int) -> DAGSchedule:
        """Precedence-constrained list scheduling on *cores* cores.

        Ready tasks dispatch by critical-path priority (longest
        downstream chain first, block order as tiebreak) to the
        earliest-free core — the classic HLF heuristic.  Returns the
        full per-task placement (start, finish, lane, ready time).

        The schedule works on block positions; the placement dicts are
        built once at the end, in dispatch order.
        """
        require(cores)
        order = self.order
        count = len(order)
        if not count:
            return DAGSchedule(
                cores=cores, makespan=0.0, start_times={},
                finish_times={}, core_of={}, ready_times={},
            )
        costs, successors = self._by_position()
        downstream = _downstream(costs, successors)
        indegree = [len(self.predecessors[h]) for h in order]
        # One int per task orders the ready heap as (-downstream,
        # position) would: the rank of its downstream path, longest
        # first, times the block size, plus its position.
        paths = sorted(set(downstream), reverse=True)
        rank = {path: place * count for place, path in enumerate(paths)}
        priority = [
            rank[path] + index for index, path in enumerate(downstream)
        ]

        # Two heaps: tasks waiting on predecessors keyed by ready time,
        # and tasks ready to run keyed by priority.  A core that frees
        # at time t runs the highest-priority task ready by t.
        push, pop = heapq.heappush, heapq.heappop
        waiting: list[tuple[float, int]] = []
        ready = [
            priority[index] for index in range(count) if not indegree[index]
        ]
        heapq.heapify(ready)
        core_free = [(0.0, core) for core in range(cores)]
        ready_time = [0.0] * count
        # The placement, one entry per dispatch.
        hashes: list[str] = []
        starts: list[float] = []
        ends: list[float] = []
        lanes: list[int] = []
        now = 0.0
        for _ in range(count):
            if not ready:
                # Idle until the next task becomes ready.
                if not waiting:
                    raise RuntimeError("cycle detected in dependency DAG")
                if waiting[0][0] > now:
                    now = waiting[0][0]
            while waiting and waiting[0][0] <= now:
                index = pop(waiting)[1]
                push(ready, priority[index])
            core_time, core = core_free[0]
            index = pop(ready) % count
            # A task is ready only once its ready time is not past now.
            begin = core_time if core_time > now else now
            end = begin + costs[index]
            heapq.heapreplace(core_free, (end, core))
            hashes.append(order[index])
            starts.append(begin)
            ends.append(end)
            lanes.append(core)
            if core_free[0][0] > now:
                now = core_free[0][0]
            for successor in successors[index]:
                indegree[successor] -= 1
                if end > ready_time[successor]:
                    ready_time[successor] = end
                if not indegree[successor]:
                    if ready_time[successor] <= now:
                        push(ready, priority[successor])
                    else:
                        push(waiting, (ready_time[successor], successor))
        return DAGSchedule(
            cores=cores,
            makespan=max(ends),
            start_times=dict(zip(hashes, starts)),
            finish_times=dict(zip(hashes, ends)),
            core_of=dict(zip(hashes, lanes)),
            ready_times=dict(zip(order, ready_time)),
        )

    def schedule_makespan(self, cores: int) -> float:
        """Makespan of :meth:`schedule` (kept for existing callers)."""
        return self.schedule(cores).makespan

    def speedup(self, cores: int) -> float:
        """Total work over the scheduled makespan."""
        makespan = self.schedule_makespan(cores)
        if makespan == 0:
            return 1.0
        return self.total_work / makespan


def _downstream(
    costs: Sequence[float], successors: Sequence[Sequence[int]]
) -> list[float]:
    """Longest path headed by each position; successors come later."""
    downstream = [0.0] * len(costs)
    for index in range(len(costs) - 1, -1, -1):  # reverse topological
        tail = 0.0
        for successor in successors[index]:
            if downstream[successor] > tail:
                tail = downstream[successor]
        downstream[index] = costs[index] + tail
    return downstream


def run_dag(dag: DependencyDAG, cores: int) -> ExecutionReport:
    """Execute *dag* on a simulated multicore as the ``dag`` engine.

    Wraps :meth:`DependencyDAG.schedule` in the uniform executor
    contract — an :class:`~repro.execution.engine.ExecutionReport` whose
    schedule is the :class:`~repro.execution.schedule.Plan` (its rows
    carry one ``edge`` per dependency, which the Chrome exporter draws
    as a flow arrow), and the ``exec.*`` metric family.  Its measured
    speed-up may legitimately *exceed* the Eq. 2 bound ``min(n, 1/l)``:
    the bound treats each dependency group as sequential, while the DAG
    exploits the partial order inside it.
    """
    plan = dag.schedule(cores)
    if obs.measuring():
        obs.counter("exec.dag.edges").inc(
            sum(len(s) for s in dag.successors.values())
        )
        obs.histogram("exec.dag.critical_path").observe(
            dag.critical_path()
        )
    return finish_run("dag", cores, ExecutionReport(
        executor="dag",
        cores=cores,
        wall_time=plan.makespan,
        total_work=dag.total_work,
        num_tasks=len(dag.order),
        rounds=1,
        schedule=(Plan(dag, plan),),
    ))


def _block_dag(hashes: list[str], costs: list[float]) -> DependencyDAG:
    """A DAG of one block's *hashes*, in block order, with no edges yet:
    what one ``add_task`` per transaction builds, in one pass."""
    position = {tx_hash: index for index, tx_hash in enumerate(hashes)}
    if len(position) != len(hashes):
        seen: set[str] = set()
        for tx_hash in hashes:
            if tx_hash in seen:
                raise ValueError(f"duplicate task {tx_hash!r}")
            seen.add(tx_hash)
    return DependencyDAG(
        order=hashes,
        costs=dict(zip(hashes, costs)),
        successors={tx_hash: set() for tx_hash in hashes},
        predecessors={tx_hash: set() for tx_hash in hashes},
        position=position,
    )


def task_dag(tasks: Sequence[TxTask]) -> DependencyDAG:
    """The partial order of *tasks*' read/write sets, in block order.

    Each task follows the last earlier writer of every location it
    reads or writes, and a writer also follows the readers since that
    write: every edge joins a pair :meth:`TxTask.conflicts_with` names,
    and every such pair is joined by a path.  Each task keeps its cost.

    Raises:
        ValueError: two tasks share a hash.
    """
    hashes = [task.tx_hash for task in tasks]
    dag = _block_dag(hashes, [task.cost for task in tasks])
    # The tasks followed are always earlier ones: each edge is already
    # oriented, and goes straight into the sets.
    successors, predecessors = dag.successors, dag.predecessors
    last_writer: dict[str, str] = {}
    readers: dict[str, list[str]] = {}
    for task, tx_hash in zip(tasks, hashes):
        after = predecessors[tx_hash]
        reads = task.reads  # empty for every UTXO task: skip its walks
        if reads:
            for location in reads:
                writer = last_writer.get(location)
                if writer is not None:
                    after.add(writer)
        for location in task.writes:
            writer = last_writer.get(location)
            if writer is not None:
                after.add(writer)
            if readers:
                since = readers.pop(location, None)
                if since is not None:
                    after.update(since)
            last_writer[location] = tx_hash
        if reads:
            for location in reads:
                readers.setdefault(location, []).append(tx_hash)
        for earlier in after:
            successors[earlier].add(tx_hash)
    return dag


@dataclass
class DAGExecutor:
    """The ``dag`` engine as an executor: :func:`run_dag` over
    :func:`task_dag`."""

    cores: int
    name = "dag"

    def __post_init__(self) -> None:
        require(self.cores)

    def run(self, tasks: Sequence[TxTask]) -> ExecutionReport:
        return run_dag(task_dag(tasks), self.cores)
