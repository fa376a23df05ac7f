"""Tests for intra-transaction concurrency analysis (§VII)."""

from __future__ import annotations

import pytest

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    InternalTransaction,
    make_account_transaction,
)
from repro.core.intratx import (
    analyze_intra_tx,
    block_intra_tx_potential,
    build_call_tree,
)


def _executed(internals, sender="0xa", receiver="0xapp"):
    tx = make_account_transaction(
        sender=sender, receiver=receiver, value=0, nonce=0,
        gas_limit=500_000,
    )
    receipt = Receipt(
        tx_hash=tx.tx_hash,
        success=True,
        gas_used=50_000,
        internal_transactions=tuple(internals),
    )
    return ExecutedTransaction(tx=tx, receipt=receipt)


def _call(sender, receiver, depth):
    return InternalTransaction(sender=sender, receiver=receiver, depth=depth)


class TestCallTree:
    def test_plain_transfer_is_single_node(self):
        tree = build_call_tree(_executed([]))
        assert not tree.children
        assert tree.total_work() == 1.0
        assert tree.critical_path() == 1.0

    def test_depth_nesting(self):
        internals = [
            _call("0xapp", "0xb", 2),
            _call("0xb", "0xc", 3),
            _call("0xapp", "0xd", 2),
        ]
        tree = build_call_tree(_executed(internals))
        assert len(tree.children) == 2
        assert len(tree.children[0].children) == 1
        assert tree.total_work() == 4.0

    def test_subtree_addresses(self):
        internals = [_call("0xapp", "0xb", 2), _call("0xb", "0xc", 3)]
        tree = build_call_tree(_executed(internals))
        assert tree.subtree_addresses() == {"0xapp", "0xb", "0xc"}


class TestCriticalPath:
    def test_independent_fan_out_parallelises(self):
        """Calls to disjoint receivers can all run concurrently."""
        internals = [_call("0xapp", f"0xsink{i}", 2) for i in range(8)]
        result = analyze_intra_tx(_executed(internals))
        assert result.total_work == 9.0
        assert result.critical_path == 2.0  # root + one parallel layer
        assert result.speedup_potential == pytest.approx(4.5)

    def test_shared_receiver_serialises(self):
        """Two calls into the same contract must run one after another."""
        internals = [
            _call("0xapp", "0xshared", 2),
            _call("0xapp", "0xshared", 2),
        ]
        result = analyze_intra_tx(_executed(internals))
        assert result.critical_path == 3.0  # root + two serialised calls
        assert result.speedup_potential == pytest.approx(1.0)

    def test_deep_chain_is_sequential(self):
        chain = ["0xapp", "0xb", "0xc", "0xd"]
        internals = [
            _call(chain[i], chain[i + 1], depth=i + 2)
            for i in range(len(chain) - 1)
        ]
        result = analyze_intra_tx(_executed(internals))
        assert result.critical_path == result.total_work

    def test_mixed_tree(self):
        """A chain plus an independent branch: path = root + chain."""
        internals = [
            _call("0xapp", "0xb", 2),
            _call("0xb", "0xc", 3),
            _call("0xapp", "0xindependent", 2),
        ]
        result = analyze_intra_tx(_executed(internals))
        assert result.total_work == 4.0
        assert result.critical_path == 3.0  # root -> b -> c
        assert result.speedup_potential == pytest.approx(4 / 3)


class TestBlockPotential:
    def test_empty_block(self):
        assert block_intra_tx_potential([]) == 1.0

    def test_transfers_only_block_has_no_potential(self):
        block = [_executed([], sender=f"0xs{i}") for i in range(5)]
        assert block_intra_tx_potential(block) == pytest.approx(1.0)

    def test_fan_out_block_has_potential(self):
        wide = _executed(
            [_call("0xapp", f"0xsink{i}", 2) for i in range(8)]
        )
        assert block_intra_tx_potential([wide]) > 2.0

    def test_on_real_workload(self, small_ethereum_builder):
        """The synthetic Ethereum workload has measurable intra-tx
        concurrency (multi-call apps) — the paper's §VII conjecture."""
        potentials = []
        for _block, executed in small_ethereum_builder.executed_blocks:
            regular = [i for i in executed if not i.is_coinbase]
            if len(regular) >= 10:
                potentials.append(block_intra_tx_potential(executed))
        assert potentials
        mean_potential = sum(potentials) / len(potentials)
        assert 1.0 < mean_potential < 4.0
