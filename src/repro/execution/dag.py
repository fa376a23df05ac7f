"""Dependency-DAG execution: how pessimistic is the LCC assumption?

The paper's group model treats each connected component as strictly
sequential: "the size of largest connected component is the largest
number of transactions that need to be executed sequentially" (§V-B).
That is an over-approximation.  The true constraint inside a component
is a *partial order*:

* UTXO model — transaction ``b`` must follow ``a`` only when ``b``
  spends an output ``a`` creates.  A fan-out's children are mutually
  independent: a 25-transaction component whose shape is one parent
  plus 24 children has critical path 2, not 25.
* account model — two transactions must be ordered only when they
  directly share an address (balance cell); block order orients the
  edge.  A pure exchange fan-in really is sequential (every deposit
  writes the same balance), so for account chains the paper's
  assumption is tight; for UTXO chains it is loose.

:class:`DependencyDAG` builds the partial order, computes the critical
path, and schedules it on ``n`` cores with precedence-constrained list
scheduling.  The bench compares the resulting speed-ups against the
chain-per-component model (Eq. 2's basis).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.execution.engine import ExecutionReport, finish_run, require
from repro.obs.timeline import QUEUE_LANE
from repro.utxo.transaction import UTXOTransaction


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

    def downstream_path(self) -> dict[str, float]:
        """For each task, the cost of the longest path it heads.

        The standard critical-path (HLF) priority: tasks heading long
        dependency chains should dispatch first, or a late-starting
        chain dominates the makespan.
        """
        downstream: dict[str, float] = {}
        for tx_hash in reversed(self.order):  # reverse topological
            tail = max(
                (downstream[s] for s in self.successors[tx_hash]),
                default=0.0,
            )
            downstream[tx_hash] = self.costs[tx_hash] + tail
        return downstream

    def schedule(self, cores: int) -> DAGSchedule:
        """Precedence-constrained list scheduling on *cores* cores.

        Ready tasks dispatch by critical-path priority (longest
        downstream chain first, block order as tiebreak) to the
        earliest-free core — the classic HLF heuristic.  Returns the
        full per-task placement (start, finish, lane, ready time).
        """
        require(cores)
        if not self.order:
            return DAGSchedule(
                cores=cores, makespan=0.0, start_times={},
                finish_times={}, core_of={}, ready_times={},
            )
        indegree = {
            h: len(self.predecessors[h]) for h in self.order
        }
        position = self.position
        downstream = self.downstream_path()

        # Two heaps: tasks waiting on predecessors keyed by ready time,
        # and tasks ready to run keyed by priority.  A core that frees
        # at time t runs the highest-priority task ready by t.
        waiting: list[tuple[float, int, str]] = []
        ready: list[tuple[float, int, str]] = []
        for h in self.order:
            if indegree[h] == 0:
                heapq.heappush(ready, (-downstream[h], position[h], h))
        ready_time: dict[str, float] = {}
        core_free: list[tuple[float, int]] = [
            (0.0, core) for core in range(cores)
        ]
        heapq.heapify(core_free)
        start_times: dict[str, float] = {}
        finish: dict[str, float] = {}
        core_of: dict[str, int] = {}
        scheduled = 0
        now = 0.0
        while scheduled < len(self.order):
            if not ready:
                # Idle until the next task becomes ready.
                assert waiting, "deadlock: nothing ready, nothing waiting"
                now = max(now, waiting[0][0])
            while waiting and waiting[0][0] <= now:
                _t, pos, h = heapq.heappop(waiting)
                heapq.heappush(ready, (-downstream[h], pos, h))
            if not ready:
                continue
            core_time, core = heapq.heappop(core_free)
            start_floor = max(core_time, now)
            _prio, _pos, tx_hash = heapq.heappop(ready)
            start = max(start_floor, ready_time.get(tx_hash, 0.0))
            end = start + self.costs[tx_hash]
            heapq.heappush(core_free, (end, core))
            start_times[tx_hash] = start
            finish[tx_hash] = end
            core_of[tx_hash] = core
            scheduled += 1
            now = max(now, core_free[0][0])
            for successor in self.successors[tx_hash]:
                indegree[successor] -= 1
                ready_time[successor] = max(
                    ready_time.get(successor, 0.0), end
                )
                if indegree[successor] == 0:
                    if ready_time[successor] <= now:
                        heapq.heappush(
                            ready,
                            (
                                -downstream[successor],
                                position[successor],
                                successor,
                            ),
                        )
                    else:
                        heapq.heappush(
                            waiting,
                            (
                                ready_time[successor],
                                position[successor],
                                successor,
                            ),
                        )
        if len(finish) != len(self.order):
            raise RuntimeError("cycle detected in dependency DAG")
        return DAGSchedule(
            cores=cores,
            makespan=max(finish.values()),
            start_times=start_times,
            finish_times=finish,
            core_of=core_of,
            ready_times={
                h: ready_time.get(h, 0.0) for h in self.order
            },
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


def run_dag(dag: DependencyDAG, cores: int) -> ExecutionReport:
    """Execute *dag* on a simulated multicore as the ``dag`` engine.

    Wraps :meth:`DependencyDAG.schedule` in the uniform executor
    contract — an :class:`~repro.execution.engine.ExecutionReport`, the
    ``exec.*`` metric family, and flight-recorder events (``schedule``
    when a task's last predecessor finishes, then ``start``/``commit``
    on its lane, plus one ``edge`` event per dependency so the Chrome
    exporter can draw handoff chains as flow arrows).  Its measured speed-up may legitimately *exceed* the
    Eq. 2 bound ``min(n, 1/l)``: the bound treats each dependency group
    as sequential, while the DAG exploits the partial order inside it.
    """
    plan = dag.schedule(cores)
    recorder = obs.get_recorder()
    if recorder.enabled and dag.order:
        block = recorder.current_block

        def expand():
            # plan and dag are immutable after scheduling, so the row
            # build can run lazily when the recorder is read.
            rows = []
            rows.extend(
                ("dag", block, 0, "schedule", tx_hash, QUEUE_LANE,
                 plan.ready_times[tx_hash], 0.0)
                for tx_hash in dag.order
            )
            rows.extend(
                ("dag", block, 0, "start", tx_hash, plan.core_of[tx_hash],
                 plan.start_times[tx_hash], dag.costs[tx_hash])
                for tx_hash in dag.order
            )
            rows.extend(
                ("dag", block, 0, "commit", tx_hash, plan.core_of[tx_hash],
                 plan.finish_times[tx_hash], dag.costs[tx_hash])
                for tx_hash in dag.order
            )
            # One edge event per dependency, stamped at the handoff
            # moment (the predecessor's finish); task carries both
            # endpoints as "pred->succ" for the flow exporter.
            rows.extend(
                ("dag", block, 0, "edge", f"{pred}->{succ}", QUEUE_LANE,
                 plan.finish_times[pred], 0.0)
                for pred in dag.order
                for succ in sorted(dag.successors[pred])
            )
            return rows

        recorder.defer(expand)
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
        commits=tuple(
            (finish, tx_hash)
            for tx_hash, finish in plan.finish_times.items()
        ),
    ))


def utxo_dag(transactions: Sequence[UTXOTransaction]) -> DependencyDAG:
    """The true UTXO partial order: creator -> spender edges only."""
    dag = DependencyDAG()
    regular = [tx for tx in transactions if not tx.is_coinbase]
    for tx in regular:
        dag.add_task(tx.tx_hash)
    in_block = {tx.tx_hash for tx in regular}
    for tx in regular:
        for outpoint in tx.inputs:
            if outpoint.tx_hash in in_block:
                dag.add_edge(outpoint.tx_hash, tx.tx_hash)
    return dag


def account_dag(
    executed: Sequence[ExecutedTransaction], *, unit_cost: bool = True
) -> DependencyDAG:
    """Account-model partial order: direct address sharing, block order.

    Each transaction touches its regular and internal endpoints; a
    later transaction depends on the most recent earlier transaction
    touching each shared address (chaining per address, like per-cell
    write locks).  The endpoints are those of ``edges()``, where a
    creation's receiver is the created contract, plus ``tx.sender`` and
    ``tx.receiver``, the balance cells the task adapter gives every
    transaction: there a creation's receiver is the null address, so
    two creations in a block conflict in every other engine's sets and
    in the state-root fold, and must be ordered here as well.
    """
    dag = DependencyDAG()
    last_toucher: dict[str, str] = {}
    for item in executed:
        if item.is_coinbase:
            continue
        cost = 1.0 if unit_cost else max(1.0, item.gas_used / 21_000.0)
        dag.add_task(item.tx_hash, cost=cost)
        touched = {item.tx.sender, item.tx.receiver}
        for sender, receiver in item.edges():
            touched.add(sender)
            touched.add(receiver)
        for address in touched:
            previous = last_toucher.get(address)
            if previous is not None:
                dag.add_edge(previous, item.tx_hash)
            last_toucher[address] = item.tx_hash
    return dag
