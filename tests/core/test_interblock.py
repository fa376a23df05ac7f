"""Tests for inter-block concurrency analysis (§VII extension)."""

from __future__ import annotations

import pytest

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import make_account_transaction
from repro.core import interblock
from repro.core.interblock import (
    account_window_concurrency,
    sliding_window_speedups,
    utxo_window_concurrency,
)
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


def _utxo_chain_blocks():
    """Two blocks where block 2 spends outputs created in block 1."""
    cb0 = make_coinbase(reward=10 * COIN, miner="m", height=0)
    a = make_transaction(
        inputs=[cb0.outputs[0].outpoint],
        outputs=[TxOutputSpec(value=10 * COIN, owner="x")],
        nonce="a",
    )
    b = make_transaction(
        inputs=[a.outputs[0].outpoint],
        outputs=[TxOutputSpec(value=10 * COIN, owner="y")],
        nonce="b",
    )
    # Block 2: c spends b's output (cross-block edge), d independent.
    c = make_transaction(
        inputs=[b.outputs[0].outpoint],
        outputs=[TxOutputSpec(value=10 * COIN, owner="z")],
        nonce="c",
    )
    cb1 = make_coinbase(reward=10 * COIN, miner="m", height=1)
    d = make_transaction(
        inputs=[cb1.outputs[0].outpoint],
        outputs=[TxOutputSpec(value=10 * COIN, owner="w")],
        nonce="d",
    )
    block1 = [cb0, a, b]
    block2 = [cb1, c, d]
    return block1, block2


class TestUTXOWindows:
    def test_cross_block_edges_merge_groups(self):
        block1, block2 = _utxo_chain_blocks()
        window = utxo_window_concurrency([block1, block2])
        assert window.num_transactions == 4
        # a-b-c chain spans the block boundary.
        assert window.window_tdg.lcc_size == 3
        assert window.per_block_lccs == (2, 1)

    def test_single_block_window_equals_block_tdg(self):
        block1, _ = _utxo_chain_blocks()
        window = utxo_window_concurrency([block1])
        assert window.window_tdg.lcc_size == max(window.per_block_lccs)

    def test_interblock_speedup_gains_from_imbalance(self):
        """Interleaving absorbs per-block LCC tails across boundaries."""
        block1, block2 = _utxo_chain_blocks()
        window = utxo_window_concurrency([block1, block2])
        pipeline = window.pipeline_makespan(cores=4)
        interleaved = window.interleaved_makespan(cores=4)
        # pipeline: block1 takes 2 (chain a-b), block2 takes 1 => 3.
        # interleaved: chain a-b-c takes 3, d overlaps => 3.
        assert pipeline == pytest.approx(3.0)
        assert interleaved == pytest.approx(3.0)
        assert window.interblock_speedup(4) == pytest.approx(1.0)

    def test_parallel_blocks_pipeline_poorly(self):
        """Independent single-tx blocks gain the full window width."""
        blocks = []
        for height in range(4):
            cb = make_coinbase(reward=COIN, miner="m", height=height)
            spend = make_transaction(
                inputs=[cb.outputs[0].outpoint],
                outputs=[TxOutputSpec(value=COIN, owner=f"u{height}")],
                nonce=("s", height),
            )
            blocks.append([cb, spend])
        window = utxo_window_concurrency(blocks)
        # Pipeline: 4 barriers of 1 unit each; interleaved: 1 unit.
        assert window.interblock_speedup(cores=8) == pytest.approx(4.0)


class TestAccountWindows:
    def test_hot_address_chains_across_blocks(self):
        """Exchange fan-in merges across blocks: limited inter-block gain.

        This is the §VII caveat the analysis surfaces: under component
        scheduling, a hot address chains the window's groups together,
        so inter-block interleaving cannot beat the per-block pipeline.
        """
        block1 = [_executed(f"0xa{i}", "0xhot", nonce=0) for i in range(3)]
        block2 = [_executed(f"0xb{i}", "0xhot", nonce=0) for i in range(3)]
        window = account_window_concurrency([block1, block2])
        assert window.window_tdg.lcc_size == 6
        assert window.interblock_speedup(cores=8) <= 1.0 + 1e-9

    def test_disjoint_blocks_interleave_freely(self):
        block1 = [_executed("0xa", "0xhub1"), _executed("0xb", "0xhub1")]
        block2 = [_executed("0xc", "0xhub2"), _executed("0xd", "0xhub2")]
        window = account_window_concurrency([block1, block2])
        assert window.interblock_speedup(cores=8) == pytest.approx(2.0)

    def test_window_group_conflict_rate(self):
        block1 = [_executed("0xa", "0xhub")]
        block2 = [_executed("0xb", "0xother")]
        window = account_window_concurrency([block1, block2])
        assert window.window_group_conflict_rate == pytest.approx(0.5)


class TestSlidingWindows:
    def test_window_count(self):
        block1, block2 = _utxo_chain_blocks()
        speedups = sliding_window_speedups(
            [block1, block2, block1, block2][:3],
            window=2,
            cores=4,
            model="utxo",
        )
        assert len(speedups) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            sliding_window_speedups([], window=0, cores=4, model="utxo")
        with pytest.raises(ValueError):
            sliding_window_speedups([], window=1, cores=4, model="graph")

    def test_on_real_bitcoin_chain(self, small_bitcoin_ledger):
        blocks = [
            list(block.transactions) for block in small_bitcoin_ledger
        ][-12:]
        # With ample cores each block's makespan is its LCC tail, so
        # interleaving across block barriers absorbs those tails.
        speedups = sliding_window_speedups(
            blocks, window=4, cores=64, model="utxo"
        )
        assert len(speedups) == 9
        assert all(s >= 0.85 for s in speedups)
        assert max(speedups) > 1.0

    @pytest.mark.parametrize("model", ["utxo", "account"])
    def test_each_block_is_analysed_once(
        self, model, monkeypatch, small_bitcoin_ledger, small_ethereum_builder
    ):
        """12 blocks, window 4: 12 per-block TDGs plus 9 merged ones —
        not 4 per-block TDGs again for each of the 9 windows."""
        if model == "utxo":
            blocks = [list(b.transactions) for b in small_bitcoin_ledger]
            name, per_window = "utxo_tdg", utxo_window_concurrency
        else:
            blocks = [
                list(executed)
                for _block, executed in small_ethereum_builder.executed_blocks
            ]
            name, per_window = "account_tdg", account_window_concurrency
        blocks = blocks[-12:]
        window_at_a_time = [
            per_window(blocks[start:start + 4]).interblock_speedup(8)
            for start in range(9)
        ]

        builds = []
        make_tdg = getattr(interblock, name)

        def counted(transactions):
            builds.append(len(transactions))
            return make_tdg(transactions)

        monkeypatch.setattr(interblock, name, counted)
        speedups = sliding_window_speedups(
            blocks, window=4, cores=8, model=model
        )
        assert speedups == window_at_a_time
        assert len(builds) == 12 + 9
