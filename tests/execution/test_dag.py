"""Tests for dependency-DAG execution (the Eq. 2 pessimism study)."""

from __future__ import annotations

import pytest

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import make_account_transaction
from repro.core.tdg import utxo_tdg
from repro.execution.dag import DependencyDAG, account_dag, utxo_dag
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
        dag = utxo_dag(block)
        assert tdg.lcc_size == 9
        assert dag.critical_path() == 2.0
        # Chain model bounds speed-up by x/LCC = 1; DAG achieves ~4.5x.
        assert dag.speedup(8) > 4.0

    def test_fig6_chain_truly_sequential(self):
        """Fig. 6's sweep chain has no hidden parallelism."""
        from repro.analysis.examples import figure_6_chain

        transactions, tdg = figure_6_chain()
        dag = utxo_dag(transactions)
        assert dag.critical_path() == float(tdg.lcc_size)
        assert dag.speedup(64) == pytest.approx(1.0)

    def test_spend_of_prior_blocks_has_no_edges(self):
        cb = make_coinbase(reward=COIN, miner="m", height=0)
        lone = make_transaction(
            inputs=[cb.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=COIN, owner="x")],
            nonce="lone",
        )
        dag = utxo_dag([lone])
        assert dag.critical_path() == 1.0


class TestAccountDag:
    def test_exchange_fan_in_is_truly_sequential(self):
        """Deposits to one address chain per-cell: Eq. 2 is tight here."""
        block = [_executed(f"0xu{i}", "0xhot") for i in range(6)]
        dag = account_dag(block)
        assert dag.critical_path() == 6.0
        assert dag.speedup(8) == pytest.approx(1.0)

    def test_disjoint_transfers_parallel(self):
        block = [
            _executed(f"0xa{i}", f"0xb{i}") for i in range(8)
        ]
        dag = account_dag(block)
        assert dag.critical_path() == 1.0
        assert dag.speedup(8) == pytest.approx(8.0)

    def test_per_address_chaining(self):
        """A->B, B->C, D->E: first two chain via B, third is free."""
        block = [
            _executed("0xa", "0xb"),
            _executed("0xb", "0xc"),
            _executed("0xd", "0xe"),
        ]
        dag = account_dag(block)
        assert dag.critical_path() == 2.0
        assert dag.schedule_makespan(2) == 2.0

    def test_gas_costs_mode(self):
        block = [_executed("0xa", "0xb")]
        dag = account_dag(block, unit_cost=False)
        assert dag.total_work == pytest.approx(1.0)

    def test_dag_never_slower_than_chain_model(self, small_ethereum_builder):
        """DAG speed-up >= x/LCC on every real block (less pessimism)."""
        from repro.core.tdg import account_tdg

        for _block, executed in small_ethereum_builder.executed_blocks[-15:]:
            regular = [i for i in executed if not i.is_coinbase]
            if len(regular) < 10:
                continue
            tdg = account_tdg(executed)
            dag = account_dag(executed)
            chain_bound = tdg.num_transactions / tdg.lcc_size
            assert dag.speedup(64) >= chain_bound - 1e-9


def test_two_creations_commit_in_block_order():
    """Every creation writes the null address's balance cell in the
    task sets and the state-root fold, so the DAG must order creations
    too: the first one here waits on a transfer, the second is free."""
    from repro.account.transaction import NULL_ADDRESS
    from repro.execution.engine import tasks_from_account_block
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
