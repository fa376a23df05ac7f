"""Tests for the block tree, heaviest-chain rule, and reorgs."""

from __future__ import annotations

import pytest

from repro.chain.block import GENESIS_PARENT, build_block
from repro.chain.errors import LinkError, ValidationError
from repro.chain.forkchoice import BlockTree, ForkChoice
from repro.chain.transaction import TransactionStub
from repro.utxo.transaction import TxOutputSpec, make_coinbase, make_transaction
from repro.utxo.txo import COIN
from repro.utxo.utxo_set import UTXOSet


def _block(height, parent, difficulty=1.0, tag="", timestamp=None):
    return build_block(
        [TransactionStub(tx_hash=f"tx-{height}-{tag}")],
        height=height,
        parent_hash=parent,
        timestamp=float(height) if timestamp is None else timestamp,
        difficulty=difficulty,
    )


class TestBlockTree:
    def test_add_and_work_accumulates(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT, difficulty=2.0)
        tree.add(genesis)
        child = _block(1, genesis.block_hash, difficulty=3.0)
        tree.add(child)
        assert tree.work(child.block_hash) == pytest.approx(5.0)

    def test_unknown_parent_rejected(self):
        tree = BlockTree()
        with pytest.raises(LinkError):
            tree.add(_block(1, "f" * 64))

    def test_duplicate_rejected(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT)
        tree.add(genesis)
        with pytest.raises(ValidationError):
            tree.add(genesis)

    def test_height_must_follow_parent(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT)
        tree.add(genesis)
        with pytest.raises(LinkError):
            tree.add(_block(5, genesis.block_hash))

    def test_path_to_genesis(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT)
        tree.add(genesis)
        child = _block(1, genesis.block_hash)
        tree.add(child)
        path = tree.path_to_genesis(child.block_hash)
        assert [b.height for b in path] == [0, 1]

    def test_heaviest_tip_prefers_work_over_length(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT)
        tree.add(genesis)
        # Long light fork: two blocks of difficulty 1.
        light1 = _block(1, genesis.block_hash, difficulty=1.0, tag="l")
        light2 = _block(2, light1.block_hash, difficulty=1.0, tag="l")
        tree.add(light1)
        tree.add(light2)
        # Short heavy fork: one block of difficulty 5.
        heavy = _block(1, genesis.block_hash, difficulty=5.0, tag="h")
        tree.add(heavy)
        assert tree.heaviest_tip() == heavy.block_hash

    def test_first_seen_wins_ties(self):
        tree = BlockTree()
        genesis = _block(0, GENESIS_PARENT)
        tree.add(genesis)
        first = _block(1, genesis.block_hash, tag="first")
        second = _block(1, genesis.block_hash, tag="second")
        tree.add(first)
        tree.add(second)
        assert tree.heaviest_tip() == first.block_hash


class TestForkChoice:
    def _bootstrap(self):
        fc = ForkChoice()
        genesis = _block(0, GENESIS_PARENT)
        reorg = fc.receive(genesis)
        assert reorg is not None and reorg.depth == 0
        return fc, genesis

    def test_extension_reports_no_rollback(self):
        fc, genesis = self._bootstrap()
        child = _block(1, genesis.block_hash)
        reorg = fc.receive(child)
        assert reorg is not None
        assert reorg.rolled_back == ()
        assert [b.height for b in reorg.applied] == [1]
        assert fc.head == child.block_hash

    def test_losing_fork_does_not_move_head(self):
        fc, genesis = self._bootstrap()
        main1 = _block(1, genesis.block_hash, difficulty=2.0, tag="m")
        fc.receive(main1)
        side1 = _block(1, genesis.block_hash, difficulty=1.0, tag="s")
        assert fc.receive(side1) is None
        assert fc.head == main1.block_hash

    def test_overtaking_fork_triggers_reorg(self):
        fc, genesis = self._bootstrap()
        main1 = _block(1, genesis.block_hash, tag="m")
        main2 = _block(2, main1.block_hash, tag="m")
        fc.receive(main1)
        fc.receive(main2)
        side1 = _block(1, genesis.block_hash, difficulty=1.5, tag="s")
        side2 = _block(2, side1.block_hash, difficulty=1.5, tag="s")
        assert fc.receive(side1) is None  # still losing (1.5 < 2)
        reorg = fc.receive(side2)         # 3.0 + genesis > 2.0 + genesis
        assert reorg is not None
        assert reorg.depth == 2
        assert [b.height for b in reorg.rolled_back] == [2, 1]
        assert [b.height for b in reorg.applied] == [1, 2]
        assert fc.head == side2.block_hash
        assert [b.height for b in fc.active_chain()] == [0, 1, 2]

    def test_rival_genesis_rolls_back_to_nothing_in_common(self):
        fc, genesis = self._bootstrap()
        child = _block(1, genesis.block_hash)
        fc.receive(child)
        rival = _block(0, GENESIS_PARENT, difficulty=5.0, tag="rival")
        reorg = fc.receive(rival)
        assert reorg is not None
        assert [b.block_hash for b in reorg.rolled_back] == [
            child.block_hash, genesis.block_hash,
        ]
        assert [b.block_hash for b in reorg.applied] == [rival.block_hash]

    def test_receive_does_not_walk_the_whole_chain(self):
        """A head change deep in a long chain touches only the blocks
        of the reorg, never the path back to genesis."""
        fc, genesis = self._bootstrap()
        tip = genesis
        for height in range(1, 200):
            tip = _block(height, tip.block_hash)
            fc.receive(tip)
        touched = []
        real_parent = fc.tree.parent
        fc.tree.parent = lambda block: (
            touched.append(block.height) or real_parent(block)
        )
        fc.tree.path_to_genesis = None      # would raise if called
        parent = fc.tree.block(tip.header.parent_hash)
        reorg = fc.receive(
            _block(tip.height, parent.block_hash, difficulty=3.0, tag="s")
        )
        assert reorg is not None and reorg.depth == 1
        assert sorted(touched) == [199, 199]

    def test_reorg_replays_cleanly_on_utxo_state(self):
        """End-to-end: a reorg's rollback + apply keeps state consistent."""
        # Build two competing UTXO block-1 candidates over one genesis.
        cb0 = make_coinbase(reward=50 * COIN, miner="m", height=0)
        genesis = build_block(
            [cb0], height=0, parent_hash=GENESIS_PARENT, timestamp=0.0
        )
        cb1a = make_coinbase(reward=50 * COIN, miner="a", height=1)
        spend_a = make_transaction(
            inputs=[cb0.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=50 * COIN, owner="alice")],
            nonce="a",
        )
        block_a = build_block(
            [cb1a, spend_a],
            height=1,
            parent_hash=genesis.block_hash,
            timestamp=1.0,
            difficulty=1.0,
        )
        cb1b = make_coinbase(reward=50 * COIN, miner="b", height=1)
        spend_b = make_transaction(
            inputs=[cb0.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=50 * COIN, owner="bob")],
            nonce="b",
        )
        block_b = build_block(
            [cb1b, spend_b],
            height=1,
            parent_hash=genesis.block_hash,
            timestamp=1.0,
            difficulty=2.0,
        )

        fc = ForkChoice()
        state = UTXOSet()
        undos = {}

        for block in (genesis, block_a):
            reorg = fc.receive(block)
            assert reorg is not None
            for applied in reorg.applied:
                undos[applied.block_hash] = state.apply_block(
                    applied.transactions
                )
        assert state.balance_of("alice") == 50 * COIN

        reorg = fc.receive(block_b)  # heavier: triggers the reorg
        assert reorg is not None and reorg.depth == 1
        for rolled in reorg.rolled_back:
            state.revert_block(undos.pop(rolled.block_hash))
        for applied in reorg.applied:
            undos[applied.block_hash] = state.apply_block(
                applied.transactions
            )
        assert state.balance_of("alice") == 0
        assert state.balance_of("bob") == 50 * COIN
