"""Tests for the approximate TDG (§V-C future work)."""

from __future__ import annotations

import pytest

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    InternalTransaction,
    make_account_transaction,
)
from repro.core.approx import (
    approximate_account_tdg,
    assess_approximation,
    assess_block,
    corrected_group_speedup,
)
from repro.core.tdg import TDGResult, account_tdg


def _executed(sender, receiver, internals=(), nonce=0):
    tx = make_account_transaction(
        sender=sender, receiver=receiver, value=1, nonce=nonce
    )
    receipt = Receipt(
        tx_hash=tx.tx_hash,
        success=True,
        gas_used=21_000,
        internal_transactions=tuple(internals),
    )
    return ExecutedTransaction(tx=tx, receipt=receipt)


def _bridged_block():
    """Two transactions that conflict only through an internal call."""
    bridge = InternalTransaction(sender="0xb", receiver="0xd", depth=2)
    return [
        _executed("0xa", "0xb", internals=[bridge]),
        _executed("0xc", "0xd"),
        _executed("0xe", "0xf"),
    ]


class TestApproximateTDG:
    def test_approximation_ignores_internal_edges(self):
        block = _bridged_block()
        true_tdg = account_tdg(block)
        approx = approximate_account_tdg(block)
        assert true_tdg.lcc_size == 2       # bridged via the internal call
        assert approx.lcc_size == 1         # approximation misses it
        assert approx.num_transactions == true_tdg.num_transactions

    def test_exact_when_no_internal_transactions(self):
        block = [
            _executed("0xa", "0xshared"),
            _executed("0xb", "0xshared"),
            _executed("0xc", "0xd"),
        ]
        quality = assess_block(block)
        assert quality.is_exact
        assert quality.pair_recall == 1.0
        assert quality.missed_pairs == 0


class TestAssessApproximation:
    def test_missed_pairs_counted(self):
        quality = assess_block(_bridged_block())
        assert quality.missed_pairs == 1    # the bridged pair
        assert quality.pair_recall == 0.0   # 0 of 1 conflicting pairs kept
        assert quality.true_lcc == 2
        assert quality.approx_lcc == 1

    def test_partial_recall(self):
        """A 3-tx group where the approximation keeps 2 together."""
        bridge = InternalTransaction(sender="0xhot", receiver="0xz", depth=2)
        block = [
            _executed("0xa", "0xhot"),
            _executed("0xb", "0xhot", internals=[bridge]),
            _executed("0xc", "0xz", nonce=0),
        ]
        quality = assess_block(block)
        # True group: all 3 (via hot + bridge to z). Approx: {a,b}, {c}.
        assert quality.true_lcc == 3
        assert quality.approx_lcc == 2
        assert quality.missed_pairs == 2
        assert quality.pair_recall == pytest.approx(1 / 3)

    def test_mismatched_transaction_sets_rejected(self):
        a = TDGResult.from_groups((("t1",),))
        b = TDGResult.from_groups((("t2",),))
        with pytest.raises(ValueError):
            assess_approximation(a, b)

    def test_non_refinement_rejected(self):
        true_tdg = TDGResult.from_groups((("t1",), ("t2",)))
        bad_approx = TDGResult.from_groups((("t1", "t2"),))
        with pytest.raises(ValueError):
            assess_approximation(true_tdg, bad_approx)


class TestCorrectedSpeedup:
    def test_exact_approximation_gives_full_speedup(self):
        block = [
            _executed("0xa", "0xs"),
            _executed("0xb", "0xs"),
            _executed("0xc", "0xd"),
            _executed("0xe", "0xf"),
        ]
        quality = assess_block(block)
        speedup = corrected_group_speedup(quality, cores=8)
        assert speedup == pytest.approx(4 / 2)  # x / true LCC

    def test_missed_pairs_reduce_speedup(self):
        quality = assess_block(_bridged_block())
        penalised = corrected_group_speedup(
            quality, cores=8, conflict_penalty=1.0
        )
        free = corrected_group_speedup(
            quality, cores=8, conflict_penalty=0.0
        )
        assert penalised < free

    def test_validation(self):
        quality = assess_block(_bridged_block())
        with pytest.raises(ValueError):
            corrected_group_speedup(quality, cores=0)
        with pytest.raises(ValueError):
            corrected_group_speedup(quality, cores=4, conflict_penalty=-1)


class TestOnRealWorkload:
    def test_quality_over_ethereum_blocks(self, small_ethereum_builder):
        """§V-C quantified: the approximation is good but imperfect."""
        qualities = []
        for _block, executed in small_ethereum_builder.executed_blocks:
            regular = [i for i in executed if not i.is_coinbase]
            if len(regular) < 10:
                continue
            qualities.append(assess_block(executed))
        assert qualities
        # Recall is high (most conflicts are visible at the top level)
        # but not perfect (proxy contracts hide some).
        mean_recall = sum(q.pair_recall for q in qualities) / len(qualities)
        assert mean_recall > 0.5
        # The approximation never merges what the truth separates.
        for quality in qualities:
            assert quality.approx_groups >= quality.true_groups
            assert quality.approx_lcc <= quality.true_lcc
