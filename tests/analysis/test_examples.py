"""Tests pinning the paper's worked examples to its published numbers."""

from __future__ import annotations

import pytest

from repro.analysis.examples import (
    figure_1a_block,
    figure_1b_block,
    figure_6_chain,
)
from repro.core.speedup import speculative_speedup_exact


class TestFigure1a:
    def test_five_transactions_four_components(self):
        example = figure_1a_block()
        assert example.tdg.num_transactions == 5
        assert len(example.tdg.groups) == 4

    def test_paper_rates(self):
        """Paper: 'single-transaction conflict rate is 40%, and the
        group conflict rate is also 40%'."""
        example = figure_1a_block()
        assert example.metrics.single_conflict_rate == pytest.approx(0.40)
        assert example.metrics.group_conflict_rate == pytest.approx(0.40)

    def test_dwarfpool_pair_is_the_conflict(self):
        example = figure_1a_block()
        conflicted = next(g for g in example.tdg.groups if len(g) > 1)
        assert set(conflicted) == {"tx3", "tx4"}

    def test_speedup_example(self):
        """§V-A: 5 txs at c=0.4 with n>=5 gives speed-up 5/3."""
        assert speculative_speedup_exact(5, 8, 0.4) == pytest.approx(5 / 3)


class TestFigure1b:
    def test_five_components_counting_coinbase(self):
        """Paper: 'The block contains 5 connected components.'

        The paper's count includes the coinbase component drawn in
        Fig. 1b; the TDG (which excludes coinbases per §III-A1) holds
        the other four: Poloniex fan-in, the contract chain, the
        DwarfPool pair, and the lone transaction.
        """
        example = figure_1b_block()
        assert len(example.tdg.groups) + 1 == 5

    def test_fourteen_of_sixteen_conflicted(self):
        example = figure_1b_block()
        assert example.metrics.num_conflicted == 14
        assert example.total_with_coinbase == 16
        assert example.single_conflict_rate_with_coinbase == pytest.approx(
            0.875
        )

    def test_group_rate_56_25(self):
        example = figure_1b_block()
        assert example.metrics.lcc_size == 9  # the Poloniex fan-in
        assert example.group_conflict_rate_with_coinbase == pytest.approx(
            0.5625
        )

    def test_eighteen_internal_transactions(self):
        """Paper: the block contains 18 internal transactions."""
        from repro.analysis.examples import figure_1b_edges

        tx_edges = figure_1b_edges()
        internal = sum(len(edges) - 1 for edges in tx_edges.values())
        assert internal == 18
        assert len(tx_edges) == 15  # regular transactions

    def test_speedup_examples(self):
        """§V-A's worked numbers for block 1000124."""
        assert speculative_speedup_exact(16, 16, 0.875) == pytest.approx(
            16 / 15
        )
        assert speculative_speedup_exact(16, 8, 0.875) == pytest.approx(1.0)
        assert speculative_speedup_exact(16, 4, 0.875) < 1.0


class TestFigure6:
    def test_chain_of_eighteen(self):
        transactions, tdg = figure_6_chain()
        assert len(transactions) == 18
        assert tdg.num_transactions == 18
        assert tdg.lcc_size == 18
        assert tdg.num_conflicted == 18

    def test_chain_is_sequential_execution(self):
        """'The transactions within this sequence must be executed
        sequentially' — the group executor can do no better than 18."""
        from repro.execution.engine import tasks_from_utxo_block
        from repro.execution.registry import run_engine

        transactions, _ = figure_6_chain()
        tasks = tasks_from_utxo_block(transactions)
        report = run_engine("grouped", tasks, 64)
        assert report.wall_time == 18.0

    def test_values_decrease_along_chain(self):
        transactions, _ = figure_6_chain()
        mains = [tx.outputs[0].value for tx in transactions]
        assert all(b <= a for a, b in zip(mains, mains[1:]))

    def test_chain_spends_are_valid(self):
        """The chain replays against a UTXO set seeded with the source."""
        from repro.utxo.utxo_set import UTXOSet

        transactions, _ = figure_6_chain()
        first_input = transactions[0].inputs[0]
        from repro.utxo.txo import TXO

        utxos = UTXOSet(
            [
                TXO(
                    outpoint=first_input,
                    value=transactions[0].total_output_value(),
                    owner="sweeper",
                )
            ]
        )
        for tx in transactions:
            utxos.apply_transaction(tx)


class TestBlock358624:
    """The paper's extreme Bitcoin block: 3217 of 3264 txs dependent."""

    def test_dependency_counts_match_paper(self):
        from repro.analysis.examples import block_358624_block

        example = block_358624_block()
        assert example.tdg.num_transactions == 3264
        assert example.tdg.lcc_size == 3217
        assert example.metrics.num_conflicted == 3217

    def test_no_speedup_available(self):
        """Eq. 2: l ~ 0.986 means speed-up ~1 at any core count."""
        from repro.analysis.examples import block_358624_block
        from repro.core.speedup import group_speedup_bound

        example = block_358624_block()
        l = example.metrics.group_conflict_rate
        assert l == pytest.approx(3217 / 3264)
        assert group_speedup_bound(64, l) < 1.02
