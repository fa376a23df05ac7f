"""Approximate TDGs from regular transactions only — paper §V-C.

Exploiting group concurrency needs the TDG, but "the TDG uses
information about internal transactions that is not available a priori.
Nevertheless, an approximate TDG can be constructed by only using
information about the regular transactions.  Quantifying the
effectiveness of such an approach is left to future work."  This module
is that future work.

:func:`approximate_account_tdg` builds the TDG from each transaction's
top-level (sender, receiver) edge alone.  Because dropping edges can
only *split* components, the approximation under-merges: transactions
that truly conflict (through internal calls) may land in different
approximate groups.  A scheduler driven by the approximate TDG
therefore needs a conflict-detection fallback at execution time; the
quality metrics below quantify how often that fallback fires and how
much of the true speed-up survives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.account.receipts import ExecutedTransaction
from repro.core.tdg import TDGResult, account_tdg, account_tdg_from_edges


def approximate_account_tdg(
    executed: Sequence[ExecutedTransaction],
) -> TDGResult:
    """TDG built from regular (top-level) edges only.

    The a-priori view a scheduler has before executing anything: the
    block's transaction list gives senders and receivers, but none of
    the internal transactions that execution will generate.
    """
    tx_edges = {
        item.tx_hash: item.edges()[:1]
        for item in executed
        if not item.is_coinbase
    }
    return account_tdg_from_edges(tx_edges)


@dataclass(frozen=True)
class ApproximationQuality:
    """How well the approximate TDG predicts the true one.

    The true TDG's partition is always a *coarsening* of the
    approximate one (extra edges only merge groups), so quality reduces
    to how much merging the approximation misses.

    Attributes:
        num_transactions: block size (non-coinbase).
        true_groups / approx_groups: partition sizes.
        missed_pairs: conflicting transaction pairs the approximation
            separates — each is a potential runtime conflict between
            two concurrently scheduled groups.
        pair_recall: fraction of truly-conflicting pairs the
            approximation keeps together (1.0 = perfect).
        true_lcc / approx_lcc: LCC sizes under each view.
        predicted_speedup_ratio: (1/l_approx) / (1/l_true) — how much
            the approximation *over-promises* speed-up (>= 1.0).
    """

    num_transactions: int
    true_groups: int
    approx_groups: int
    missed_pairs: int
    pair_recall: float
    true_lcc: int
    approx_lcc: int

    @property
    def predicted_speedup_ratio(self) -> float:
        if self.true_lcc == 0 or self.approx_lcc == 0:
            return 1.0
        return self.true_lcc / self.approx_lcc

    @property
    def is_exact(self) -> bool:
        return self.missed_pairs == 0


def _pair_count(sizes: list[int]) -> int:
    return sum(size * (size - 1) // 2 for size in sizes)


def assess_approximation(
    true_tdg: TDGResult, approx_tdg: TDGResult
) -> ApproximationQuality:
    """Compare an approximate TDG against the ground-truth TDG.

    Raises:
        ValueError: when the two TDGs do not cover the same
            transactions, or the approximation is not a refinement of
            the truth (which would indicate it used edges that do not
            exist).
    """
    true_of: dict[str, int] = {}
    for index, group in enumerate(true_tdg.groups):
        for tx_hash in group:
            true_of[tx_hash] = index
    approx_hashes = {h for group in approx_tdg.groups for h in group}
    if approx_hashes != set(true_of):
        raise ValueError("TDGs cover different transaction sets")

    # Refinement check + per-true-group fragment sizes.
    fragments: dict[int, list[int]] = {}
    for group in approx_tdg.groups:
        owners = {true_of[tx_hash] for tx_hash in group}
        if len(owners) != 1:
            raise ValueError(
                "approximate TDG merges transactions the true TDG separates"
            )
        fragments.setdefault(owners.pop(), []).append(len(group))

    true_pairs = _pair_count([len(g) for g in true_tdg.groups])
    kept_pairs = _pair_count([len(g) for g in approx_tdg.groups])
    missed = true_pairs - kept_pairs
    recall = 1.0 if true_pairs == 0 else kept_pairs / true_pairs
    return ApproximationQuality(
        num_transactions=true_tdg.num_transactions,
        true_groups=len(true_tdg.groups),
        approx_groups=len(approx_tdg.groups),
        missed_pairs=missed,
        pair_recall=recall,
        true_lcc=true_tdg.lcc_size,
        approx_lcc=approx_tdg.lcc_size,
    )


def assess_block(
    executed: Sequence[ExecutedTransaction],
) -> ApproximationQuality:
    """One-call §V-C assessment for an executed block."""
    return assess_approximation(
        account_tdg(executed), approximate_account_tdg(executed)
    )


def corrected_group_speedup(
    quality: ApproximationQuality,
    cores: int,
    *,
    conflict_penalty: float = 1.0,
) -> float:
    """Realisable speed-up when scheduling by the approximate TDG.

    Scheduling approximate groups concurrently risks runtime conflicts
    between fragments of the same true group; each missed pair costs
    ``conflict_penalty`` time units of serialisation/retry (an OCC-like
    fallback).  The result interpolates between the optimistic
    ``min(n, 1/l_approx)`` and the degenerate fully-penalised case.
    """
    if cores < 1:
        raise ValueError("cores must be at least 1")
    if conflict_penalty < 0:
        raise ValueError("conflict_penalty must be non-negative")
    x = quality.num_transactions
    if x == 0:
        return 1.0
    # Optimistic makespan from the approximate view, floored by the
    # true critical path (fragments of a true group still conflict at
    # runtime and end up serialised by the fallback).
    optimistic = max(x / cores, float(quality.approx_lcc))
    makespan = max(optimistic, float(quality.true_lcc))
    makespan += conflict_penalty * quality.missed_pairs / max(1, cores)
    return x / makespan
