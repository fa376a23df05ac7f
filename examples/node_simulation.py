"""A miniature full node: mempool, mining, forks, reorgs, parallel
validation — every substrate working together.

The scenario: users submit fee-bearing transactions into a mempool; a
miner packs blocks by fee density (respecting in-pool dependencies) and
mines them onto a fork-choice-managed chain; a competing fork appears
and overtakes the head, forcing a reorg that the UTXO state replays
with its undo data; finally the node validates the new chain with the
TDG-informed parallel executor and reports its speed-up.

Run:  python examples/node_simulation.py
"""

from __future__ import annotations

import random

from repro.chain.block import GENESIS_PARENT, build_block
from repro.chain.forkchoice import ForkChoice
from repro.core.tdg import utxo_tdg
from repro.execution import run_engine, tasks_from_utxo_block
from repro.mempool import Mempool, PoolEntry
from repro.utxo.transaction import (
    TxOutputSpec,
    make_coinbase,
    make_transaction,
)
from repro.utxo.txo import COIN
from repro.utxo.utxo_set import UTXOSet

rng = random.Random(42)


def main() -> None:
    state = UTXOSet()
    fork_choice = ForkChoice()
    undos: dict[str, object] = {}

    # -- genesis ----------------------------------------------------------------
    faucet = make_coinbase(reward=1000 * COIN, miner="faucet", height=0)
    genesis = build_block(
        [faucet], height=0, parent_hash=GENESIS_PARENT, timestamp=0.0
    )
    reorg = fork_choice.receive(genesis)
    for block in reorg.applied:
        undos[block.block_hash] = state.apply_block(block.transactions)

    # Fan the faucet output into user wallets.
    fanout = make_transaction(
        inputs=[faucet.outputs[0].outpoint],
        outputs=[
            TxOutputSpec(value=100 * COIN, owner=f"user{i}")
            for i in range(10)
        ],
        nonce="fanout",
    )

    # -- mempool: users submit fee-bearing payments ------------------------------
    pool: Mempool = Mempool(min_fee_rate=0.5)
    pool.submit(
        PoolEntry(
            tx_hash=fanout.tx_hash, fee=500, weight=400, payload=fanout
        )
    )
    parents: dict[str, set[str]] = {}
    for index in range(10):
        payment = make_transaction(
            inputs=[fanout.outputs[index].outpoint],
            outputs=[
                TxOutputSpec(
                    value=100 * COIN - 1000,
                    owner=f"merchant{index % 3}",
                )
            ],
            fee=1000,
            nonce=("pay", index),
        )
        pool.submit(
            PoolEntry(
                tx_hash=payment.tx_hash,
                fee=rng.randint(500, 3000),
                weight=250,
                payload=payment,
            )
        )
        parents[payment.tx_hash] = {fanout.tx_hash}  # child of the fanout

    # -- miner packs and mines block 1 -------------------------------------------
    selected = pool.pack_block_with_dependencies(4000, parents=parents)
    coinbase1 = make_coinbase(reward=50 * COIN, miner="minerA", height=1)
    block1 = build_block(
        [coinbase1, *[entry.payload for entry in selected]],
        height=1,
        parent_hash=genesis.block_hash,
        timestamp=600.0,
        difficulty=1.0,
    )
    reorg = fork_choice.receive(block1)
    for block in reorg.applied:
        undos[block.block_hash] = state.apply_block(block.transactions)
    print(f"block 1 mined by minerA: {len(block1)} txs "
          f"(fee-priority order, dependencies respected)")
    print(f"   merchants funded: "
          f"{state.balance_of('merchant0') / COIN:.2f} coins at merchant0")

    # -- a heavier competing fork appears ----------------------------------------
    coinbase1b = make_coinbase(reward=50 * COIN, miner="minerB", height=1)
    fanout_b = make_transaction(
        inputs=[faucet.outputs[0].outpoint],
        outputs=[
            TxOutputSpec(value=500 * COIN, owner="whale"),
            TxOutputSpec(value=500 * COIN, owner="whale2"),
        ],
        nonce="fork-spend",
    )
    block1b = build_block(
        [coinbase1b, fanout_b],
        height=1,
        parent_hash=genesis.block_hash,
        timestamp=580.0,
        difficulty=3.0,  # heavier
    )
    reorg = fork_choice.receive(block1b)
    assert reorg is not None and reorg.depth == 1
    for rolled in reorg.rolled_back:
        state.revert_block(undos.pop(rolled.block_hash))
    for block in reorg.applied:
        undos[block.block_hash] = state.apply_block(block.transactions)
    print(f"reorg! minerB's heavier fork won (depth {reorg.depth}); "
          "state rolled back and replayed")
    print(f"   merchant0 after reorg: "
          f"{state.balance_of('merchant0') / COIN:.2f} coins "
          "(payments undone)")
    print(f"   whale after reorg: "
          f"{state.balance_of('whale') / COIN:.2f} coins")

    # -- parallel validation of the losing block (what a fast node does) ---------
    tasks = tasks_from_utxo_block(block1.transactions)
    report = run_engine("grouped", tasks, 8)
    tdg = utxo_tdg(block1.transactions)
    print(f"parallel re-validation of block 1: {report.speedup:.2f}x "
          f"on 8 cores ({len(tdg.groups)} dependency groups, "
          f"LCC {tdg.lcc_size})")


if __name__ == "__main__":
    main()
