"""Extension: how pessimistic is Eq. 2's sequential-LCC assumption?

The paper bounds group speed-up by ``min(n, 1/l)``, treating each
connected component as strictly sequential.  The true constraint is
the dependency *partial order* inside the component.  This bench
schedules blocks under both models — components-as-chains (Eq. 2's
basis, LPT-scheduled) vs. the true dependency DAG — and reports the
DAG's gain:

* on real synthetic-history blocks the two mostly agree: Bitcoin's
  intra-block components are sweep *chains* (genuinely sequential) and
  Ethereum's are shared-balance fan-ins (also genuinely sequential), so
  the paper's assumption is tight for the dominant structures;
* on fan-out-shaped components (batch payout spent within the block —
  tree, not chain) the chain model is badly pessimistic: LCC 25 but
  critical path 2.
"""

from __future__ import annotations

import statistics

from _common import get_chain, write_output

from repro.analysis.report import render_table
from repro.core.scheduling import scheduled_speedup
from repro.core.tdg import account_tdg, utxo_tdg
from repro.execution.dag import task_dag
from repro.execution.engine import tasks_from_account_block, tasks_from_utxo_block
from repro.utxo.transaction import TxOutputSpec, make_coinbase, make_transaction
from repro.utxo.txo import COIN

CORES = 64


def _utxo_blocks():
    from repro.workload.profiles import BITCOIN
    from repro.workload.utxo_workload import build_utxo_chain

    ledger = build_utxo_chain(BITCOIN, num_blocks=40, seed=21, scale=0.12)
    return [list(block.transactions) for block in ledger][-16:]


def _account_blocks():
    chain = get_chain("ethereum")
    return [
        executed
        for _block, executed in chain.account_builder.executed_blocks
        if sum(1 for i in executed if not i.is_coinbase) >= 40
    ][-16:]


def _fanout_block(width=24):
    """A batch payout fanned out and respent within the same block."""
    cb = make_coinbase(reward=width * 10 * COIN, miner="m", height=0)
    fanout = make_transaction(
        inputs=[cb.outputs[0].outpoint],
        outputs=[
            TxOutputSpec(value=10 * COIN, owner=f"u{i}")
            for i in range(width)
        ],
        nonce="payout",
    )
    children = [
        make_transaction(
            inputs=[fanout.outputs[i].outpoint],
            outputs=[TxOutputSpec(value=10 * COIN, owner=f"m{i}")],
            nonce=("spend", i),
        )
        for i in range(width)
    ]
    return [cb, fanout, *children]


def test_dag_vs_chain_model(benchmark):
    utxo_blocks = _utxo_blocks()
    account_blocks = _account_blocks()
    assert utxo_blocks and account_blocks

    def run():
        utxo_pairs = []
        for block in utxo_blocks:
            tdg = utxo_tdg(block)
            if tdg.num_transactions == 0:
                continue
            chain = scheduled_speedup(
                [float(s) for s in tdg.group_sizes()], CORES, policy="lpt"
            )
            utxo_pairs.append(
                (task_dag(tasks_from_utxo_block(block)).speedup(CORES), chain)
            )
        account_pairs = []
        for executed in account_blocks:
            tdg = account_tdg(executed)
            chain = scheduled_speedup(
                [float(s) for s in tdg.group_sizes()], CORES, policy="lpt"
            )
            account_pairs.append(
                (
                    task_dag(tasks_from_account_block(executed)).speedup(CORES),
                    chain,
                )
            )
        return utxo_pairs, account_pairs

    utxo_pairs, account_pairs = benchmark(run)

    fanout = _fanout_block()
    fanout_tdg = utxo_tdg(fanout)
    fanout_chain = scheduled_speedup(
        [float(s) for s in fanout_tdg.group_sizes()], CORES, policy="lpt"
    )
    fanout_dag = task_dag(tasks_from_utxo_block(fanout)).speedup(CORES)

    def mean_gain(pairs):
        return statistics.mean(dag / chain for dag, chain in pairs)

    write_output(
        "dag_vs_chain",
        render_table(
            ["workload", "blocks", "chain-model speed-up",
             "DAG speed-up", "DAG gain"],
            [
                (
                    "bitcoin (real blocks)",
                    len(utxo_pairs),
                    f"{statistics.mean(c for _d, c in utxo_pairs):.2f}x",
                    f"{statistics.mean(d for d, _c in utxo_pairs):.2f}x",
                    f"{mean_gain(utxo_pairs):.2f}x",
                ),
                (
                    "ethereum (real blocks)",
                    len(account_pairs),
                    f"{statistics.mean(c for _d, c in account_pairs):.2f}x",
                    f"{statistics.mean(d for d, _c in account_pairs):.2f}x",
                    f"{mean_gain(account_pairs):.2f}x",
                ),
                (
                    "fan-out component (25 txs)",
                    1,
                    f"{fanout_chain:.2f}x",
                    f"{fanout_dag:.2f}x",
                    f"{fanout_dag / fanout_chain:.2f}x",
                ),
            ],
            title=(
                "Sequential-LCC chain model vs. true dependency DAG "
                f"({CORES} cores, both LPT/list scheduled)"
            ),
        ),
    )

    # On real blocks the DAG never schedules *worse* than the chain
    # model (same components, weaker constraints) up to dispatch noise.
    for dag, chain in utxo_pairs + account_pairs:
        assert dag >= chain * 0.9
    # On the fan-out structure the chain model is badly pessimistic.
    assert fanout_tdg.lcc_size == 25
    assert fanout_dag > 5 * fanout_chain
