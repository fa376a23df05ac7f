"""Tests for dependency-DAG execution (the Eq. 2 pessimism study)."""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import make_account_transaction
from repro.core.tdg import utxo_tdg
from repro.execution.dag import (
    DAGSchedule,
    DependencyDAG,
    _block_dag,
    run_dag,
    task_dag,
)
from repro.execution.engine import (
    TxTask,
    tasks_from_account_block,
    tasks_from_utxo_block,
)
from repro.execution.registry import run_engine
from repro.utxo.transaction import TxOutputSpec, make_coinbase, make_transaction
from repro.utxo.txo import COIN


def _executed(sender, receiver, nonce=0):
    tx = make_account_transaction(
        sender=sender, receiver=receiver, value=1, nonce=nonce
    )
    return ExecutedTransaction(
        tx=tx,
        receipt=Receipt(tx_hash=tx.tx_hash, success=True, gas_used=21_000),
    )


class TestDependencyDAG:
    def test_add_and_validate(self):
        dag = DependencyDAG()
        dag.add_task("a")
        dag.add_task("b")
        dag.add_edge("a", "b")
        assert len(dag) == 2
        with pytest.raises(ValueError):
            dag.add_task("a")
        with pytest.raises(KeyError):
            dag.add_edge("a", "zz")

    def test_edges_oriented_by_block_order(self):
        dag = DependencyDAG()
        dag.add_task("first")
        dag.add_task("second")
        dag.add_edge("second", "first")  # reversed input is corrected
        assert "second" in dag.successors["first"]

    def test_orientation_follows_positions_as_tasks_and_edges_interleave(
        self,
    ):
        """Positions are kept as tasks arrive, not rebuilt per edge: an
        edge named backwards is turned round whether its endpoints were
        added before or after earlier edges."""
        dag = DependencyDAG()
        dag.add_task("a")
        dag.add_task("b")
        dag.add_edge("b", "a")
        dag.add_task("c")
        dag.add_edge("c", "a")
        dag.add_task("d")
        dag.add_edge("d", "b")
        dag.add_edge("c", "d")
        assert dag.successors == {
            "a": {"b", "c"}, "b": {"d"}, "c": {"d"}, "d": set(),
        }
        assert dag.predecessors == {
            "a": set(), "b": {"a"}, "c": {"a"}, "d": {"b", "c"},
        }
        assert dag.position == {"a": 0, "b": 1, "c": 2, "d": 3}
        # Block order stays a topological order: the schedule is sound.
        assert dag.critical_path() == 3.0
        assert dag.schedule(2).finish_times == {
            "a": 1.0, "b": 2.0, "c": 2.0, "d": 3.0,
        }

    def test_critical_path_chain(self):
        dag = DependencyDAG()
        for name in "abc":
            dag.add_task(name)
        dag.add_edge("a", "b")
        dag.add_edge("b", "c")
        assert dag.critical_path() == 3.0
        assert dag.schedule_makespan(8) == 3.0

    def test_critical_path_fan_out(self):
        dag = DependencyDAG()
        dag.add_task("parent")
        for index in range(6):
            dag.add_task(f"child{index}")
            dag.add_edge("parent", f"child{index}")
        assert dag.critical_path() == 2.0
        assert dag.schedule_makespan(6) == 2.0
        # With fewer cores the children queue up.
        assert dag.schedule_makespan(2) == 4.0

    def test_empty(self):
        dag = DependencyDAG()
        assert dag.critical_path() == 0.0
        assert dag.schedule_makespan(4) == 0.0
        assert dag.speedup(4) == 1.0


class TestUTXODag:
    def _fanout_block(self):
        """cb -> fanout -> 8 independent children: tree component."""
        cb = make_coinbase(reward=80 * COIN, miner="m", height=0)
        fanout = make_transaction(
            inputs=[cb.outputs[0].outpoint],
            outputs=[
                TxOutputSpec(value=10 * COIN, owner=f"u{i}")
                for i in range(8)
            ],
            nonce="fan",
        )
        children = [
            make_transaction(
                inputs=[fanout.outputs[i].outpoint],
                outputs=[TxOutputSpec(value=10 * COIN, owner=f"v{i}")],
                nonce=("child", i),
            )
            for i in range(8)
        ]
        return [cb, fanout, *children]

    def test_fanout_component_is_not_sequential(self):
        """The Eq. 2 pessimism: LCC 9, but critical path only 2."""
        block = self._fanout_block()
        tdg = utxo_tdg(block)
        dag = task_dag(tasks_from_utxo_block(block))
        assert tdg.lcc_size == 9
        assert dag.critical_path() == 2.0
        # Chain model bounds speed-up by x/LCC = 1; DAG achieves ~4.5x.
        assert dag.speedup(8) > 4.0

    def test_fig6_chain_truly_sequential(self):
        """Fig. 6's sweep chain has no hidden parallelism."""
        from repro.analysis.examples import figure_6_chain

        transactions, tdg = figure_6_chain()
        dag = task_dag(tasks_from_utxo_block(transactions))
        assert dag.critical_path() == float(tdg.lcc_size)
        assert dag.speedup(64) == pytest.approx(1.0)

    def test_spend_of_prior_blocks_has_no_edges(self):
        cb = make_coinbase(reward=COIN, miner="m", height=0)
        lone = make_transaction(
            inputs=[cb.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=COIN, owner="x")],
            nonce="lone",
        )
        dag = task_dag(tasks_from_utxo_block([lone]))
        assert dag.critical_path() == 1.0


class TestAccountDag:
    def test_exchange_fan_in_is_truly_sequential(self):
        """Deposits to one address chain per-cell: Eq. 2 is tight here."""
        block = [_executed(f"0xu{i}", "0xhot") for i in range(6)]
        dag = task_dag(tasks_from_account_block(block))
        assert dag.critical_path() == 6.0
        assert dag.speedup(8) == pytest.approx(1.0)

    def test_disjoint_transfers_parallel(self):
        block = [
            _executed(f"0xa{i}", f"0xb{i}") for i in range(8)
        ]
        dag = task_dag(tasks_from_account_block(block))
        assert dag.critical_path() == 1.0
        assert dag.speedup(8) == pytest.approx(8.0)

    def test_per_address_chaining(self):
        """A->B, B->C, D->E: first two chain via B, third is free."""
        block = [
            _executed("0xa", "0xb"),
            _executed("0xb", "0xc"),
            _executed("0xd", "0xe"),
        ]
        dag = task_dag(tasks_from_account_block(block))
        assert dag.critical_path() == 2.0
        assert dag.schedule_makespan(2) == 2.0

    def test_gas_costs_mode(self):
        block = [_executed("0xa", "0xb")]
        dag = task_dag(tasks_from_account_block(block, unit_cost=False))
        assert dag.total_work == pytest.approx(1.0)

    def test_dag_never_slower_than_chain_model(self, small_ethereum_builder):
        """DAG speed-up >= x/LCC on every real block (less pessimism)."""
        from repro.core.tdg import account_tdg

        for _block, executed in small_ethereum_builder.executed_blocks[-15:]:
            regular = [i for i in executed if not i.is_coinbase]
            if len(regular) < 10:
                continue
            tdg = account_tdg(executed)
            dag = task_dag(tasks_from_account_block(executed))
            chain_bound = tdg.num_transactions / tdg.lcc_size
            assert dag.speedup(64) >= chain_bound - 1e-9


def test_two_creations_commit_in_block_order():
    """Every creation writes the null address's balance cell in the
    task sets and the state-root fold, so the DAG must order creations
    too: the first one here waits on a transfer, the second is free."""
    from repro.account.transaction import NULL_ADDRESS
    from repro.execution.parallel_replay import ReplayBlock, replay_chain

    def creation(sender, created):
        tx = make_account_transaction(
            sender=sender, receiver=NULL_ADDRESS, value=0, nonce=0
        )
        return ExecutedTransaction(tx=tx, receipt=Receipt(
            tx_hash=tx.tx_hash, success=True, gas_used=53_000,
            created_contract=created,
        ))

    payload = (
        _executed("0xa", "0xb"),
        creation("0xb", "0xc1"),
        creation("0xd", "0xc2"),
    )
    block = ReplayBlock(
        height=1, tasks=tuple(tasks_from_account_block(payload)),
        payload=payload,
    )
    sequential, dag = replay_chain(
        [block], data_model="account", backend="serial",
        engines=("sequential", "dag"), cores=4,
    ).records
    assert dag.commit_order == sequential.commit_order
    assert dag.state_root == sequential.state_root


def _reference_downstream(dag: DependencyDAG) -> dict[str, float]:
    """The longest path each task heads, keyed by hash."""
    downstream: dict[str, float] = {}
    for tx_hash in reversed(dag.order):
        tail = max(
            (downstream[s] for s in dag.successors[tx_hash]), default=0.0
        )
        downstream[tx_hash] = dag.costs[tx_hash] + tail
    return downstream


def _reference_schedule(dag: DependencyDAG, cores: int) -> DAGSchedule:
    """The HLF list schedule keyed by transaction hash, as
    :meth:`DependencyDAG.schedule` ran it before it moved to block
    positions: dicts of indegree, ready time and placement, heaps keyed
    ``(-downstream, position, hash)`` and ``(ready_time, position,
    hash)``, placement dicts filled in dispatch order."""
    if not dag.order:
        return DAGSchedule(
            cores=cores, makespan=0.0, start_times={},
            finish_times={}, core_of={}, ready_times={},
        )
    indegree = {h: len(dag.predecessors[h]) for h in dag.order}
    position = dag.position
    downstream = _reference_downstream(dag)
    waiting: list[tuple[float, int, str]] = []
    ready: list[tuple[float, int, str]] = []
    for h in dag.order:
        if indegree[h] == 0:
            heapq.heappush(ready, (-downstream[h], position[h], h))
    ready_time: dict[str, float] = {}
    core_free = [(0.0, core) for core in range(cores)]
    heapq.heapify(core_free)
    start_times: dict[str, float] = {}
    finish: dict[str, float] = {}
    core_of: dict[str, int] = {}
    scheduled = 0
    now = 0.0
    while scheduled < len(dag.order):
        if not ready:
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
        end = start + dag.costs[tx_hash]
        heapq.heappush(core_free, (end, core))
        start_times[tx_hash] = start
        finish[tx_hash] = end
        core_of[tx_hash] = core
        scheduled += 1
        now = max(now, core_free[0][0])
        for successor in dag.successors[tx_hash]:
            indegree[successor] -= 1
            ready_time[successor] = max(
                ready_time.get(successor, 0.0), end
            )
            if indegree[successor] == 0:
                if ready_time[successor] <= now:
                    heapq.heappush(ready, (
                        -downstream[successor], position[successor],
                        successor,
                    ))
                else:
                    heapq.heappush(waiting, (
                        ready_time[successor], position[successor],
                        successor,
                    ))
    return DAGSchedule(
        cores=cores,
        makespan=max(finish.values()),
        start_times=start_times,
        finish_times=finish,
        core_of=core_of,
        ready_times={h: ready_time.get(h, 0.0) for h in dag.order},
    )


@st.composite
def dags(draw):
    """Up to 12 tasks with zero and tied costs, edges drawn as position
    pairs (either way round; ``add_edge`` orients them), and sometimes a
    hub every other task hangs off, so chains, fan-in and fan-out all
    occur.  Hashes are hex strings whose order is not block order."""
    count = draw(st.integers(min_value=0, max_value=12))
    hashes = [f"{(index * 7919) % 65_537:064x}" for index in range(count)]
    dag = DependencyDAG()
    for tx_hash in hashes:
        dag.add_task(tx_hash, cost=draw(st.sampled_from([0.0, 1.0, 2.5])))
    if count > 1:
        positions = st.integers(min_value=0, max_value=count - 1)
        pairs = draw(st.lists(
            st.tuples(positions, positions), max_size=3 * count,
        ))
        if draw(st.booleans()):
            hub = draw(positions)
            pairs += [(hub, other) for other in range(count)]
        for earlier, later in pairs:
            dag.add_edge(hashes[earlier], hashes[later])
    return dag


@settings(max_examples=300, deadline=None)
@given(dag=dags(), cores=st.integers(min_value=1, max_value=4))
def test_schedule_over_positions_equals_the_hash_keyed_schedule(dag, cores):
    plan = dag.schedule(cores)
    reference = _reference_schedule(dag, cores)
    assert plan == reference
    # The dicts' order too: ``run_dag``'s commit stream walks
    # ``finish_times`` in dispatch order.
    for name in ("start_times", "finish_times", "core_of", "ready_times"):
        assert list(getattr(plan, name).items()) == list(
            getattr(reference, name).items()
        ), name


# -- task_dag against the payload walks it replaced ---------------------------


def _reference_utxo_dag(transactions) -> DependencyDAG:
    """The UTXO partial order as the ``dag`` engine built it from the
    raw payload: creator -> spender edges only."""
    regular = [tx for tx in transactions if not tx.is_coinbase]
    dag = _block_dag([tx.tx_hash for tx in regular], [1.0] * len(regular))
    for tx in regular:
        for outpoint in tx.inputs:
            if outpoint.tx_hash in dag.position:
                dag.add_edge(outpoint.tx_hash, tx.tx_hash)
    return dag


def _reference_account_dag(executed) -> DependencyDAG:
    """The account partial order as the ``dag`` engine built it from
    the raw payload: each transaction follows the last earlier one
    touching any of its endpoints — those of ``edges()`` plus
    ``tx.sender`` and ``tx.receiver``."""
    regular = [item for item in executed if not item.is_coinbase]
    hashes = [item.tx_hash for item in regular]
    dag = _block_dag(hashes, [1.0] * len(regular))
    last_toucher: dict[str, str] = {}
    for item, tx_hash in zip(regular, hashes):
        touched = {item.tx.sender, item.tx.receiver}
        for sender, receiver in item.edges():
            touched.add(sender)
            touched.add(receiver)
        for address in touched:
            previous = last_toucher.get(address)
            if previous is not None:
                dag.successors[previous].add(tx_hash)
                dag.predecessors[tx_hash].add(previous)
            last_toucher[address] = tx_hash
    return dag


@pytest.fixture(scope="module")
def seeded_blocks():
    """The golden chains and one seeded chain per profile, as replay
    inputs: (profile, blocks)."""
    from repro.execution.parallel_replay import replay_block_inputs
    from repro.workload.profiles import ALL_PROFILES, PROFILES_BY_NAME
    from tests.core.test_golden_regression import GOLDEN_CHAINS

    chains = [
        (PROFILES_BY_NAME[name], args["num_blocks"], args["seed"],
         args["scale"])
        for name, args in GOLDEN_CHAINS
    ] + [(profile, 6, 1, 0.5) for profile in ALL_PROFILES]
    return [
        (profile, replay_block_inputs(
            profile, blocks=blocks, seed=seed, scale=scale, predict=False,
        ))
        for profile, blocks, seed, scale in chains
    ]


def test_task_dag_is_the_payload_dag_on_seeded_chains(seeded_blocks):
    """Same order, costs and edges as the payload walks, and the same
    schedule, on every block with a task."""
    checked = 0
    for profile, blocks in seeded_blocks:
        reference_dag = (
            _reference_utxo_dag if profile.data_model == "utxo"
            else _reference_account_dag
        )
        for block in blocks:
            if not block.tasks:
                continue
            dag = task_dag(block.tasks)
            reference = reference_dag(block.payload)
            assert dag.order == reference.order
            assert dag.costs == reference.costs
            assert dag.successors == reference.successors, profile.name
            assert dag.predecessors == reference.predecessors
            for cores in (1, 2, 4):
                assert dag.schedule(cores) == reference.schedule(cores)
            checked += 1
    assert checked > 20


LOCATIONS = st.frozensets(st.sampled_from("abcd"), max_size=3)


@st.composite
def task_lists(draw):
    """Up to 10 tasks over four shared locations — read-only sharers,
    read-write and write-write pairs all occur — plus, sometimes, a
    location of their own; costs 0, 1 or 2.5."""
    count = draw(st.integers(min_value=0, max_value=10))
    tasks = []
    for index in range(count):
        own = frozenset({f"own{index}"}) if draw(st.booleans()) else frozenset()
        tasks.append(TxTask(
            tx_hash=f"{(index * 7919) % 65_537:064x}",
            cost=draw(st.sampled_from([0.0, 0.0, 1.0, 2.5])),
            reads=draw(LOCATIONS),
            writes=draw(LOCATIONS) | own,
        ))
    return tasks


@settings(max_examples=300, deadline=None)
@given(tasks=task_lists())
def test_task_dag_orders_exactly_the_conflicting_pairs(tasks):
    dag = task_dag(tasks)
    position = {task.tx_hash: index for index, task in enumerate(tasks)}
    assert dag.order == [task.tx_hash for task in tasks]
    assert [dag.costs[h] for h in dag.order] == [t.cost for t in tasks]
    # Every edge joins a conflicting pair, earlier to later.
    for earlier, laters in dag.successors.items():
        for later in laters:
            assert position[earlier] < position[later]
            assert tasks[position[earlier]].conflicts_with(
                tasks[position[later]]
            )
            assert earlier in dag.predecessors[later]
    assert sum(map(len, dag.successors.values())) == sum(
        map(len, dag.predecessors.values())
    )
    # Every conflicting pair is joined by a path in block order.
    reach: list[set[int]] = [set() for _ in tasks]
    for index in range(len(tasks) - 1, -1, -1):
        for successor in dag.successors[tasks[index].tx_hash]:
            later = position[successor]
            reach[index].add(later)
            reach[index] |= reach[later]
    for i, first in enumerate(tasks):
        for j in range(i + 1, len(tasks)):
            if first.conflicts_with(tasks[j]):
                assert j in reach[i], (i, j)


@settings(max_examples=100, deadline=None)
@given(tasks=task_lists(), data=st.data())
def test_task_dag_rejects_duplicate_hashes(tasks, data):
    if not tasks:
        return
    twin = data.draw(st.sampled_from(tasks))
    at = data.draw(st.integers(min_value=0, max_value=len(tasks)))
    with pytest.raises(ValueError, match="duplicate task"):
        task_dag(tasks[:at] + [twin] + tasks[at:])


def test_dag_executor_runs_task_dag():
    tasks = [
        TxTask("a", writes=frozenset({"x"})),
        TxTask("b", reads=frozenset({"x"})),
        TxTask("c", reads=frozenset({"x"})),
        TxTask("d", writes=frozenset({"x"})),
    ]
    report = run_engine("dag", tasks, 2)
    assert report == run_dag(task_dag(tasks), 2)
    assert report.executor == "dag"
    assert report.wall_time == 3.0  # a, then b and c together, then d
    with pytest.raises(ValueError):
        run_engine("dag", tasks, 0)
