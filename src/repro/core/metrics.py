"""Per-block concurrency metrics — paper §III-A3.

Two metrics quantify a block's concurrency (lower conflict = more
concurrency):

* **single-transaction conflict rate** ``c`` — conflicted transactions
  over total transactions;
* **group conflict rate** ``l`` — relative LCC size: largest dependency
  group over total transactions.

Both come in weighted variants.  With per-transaction weights (e.g. gas),
the rates become the conflicted / largest-group *share of weight*, which
is the mechanism behind the paper's observation that Ethereum's
gas-weighted single-transaction conflict rate runs below the
tx-count-weighted one (expensive contract creations rarely conflict).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.tdg import TDGResult


@dataclass(frozen=True)
class BlockMetrics:
    """Concurrency metrics of one block.

    Attributes:
        num_transactions: non-coinbase transactions in the block.
        num_conflicted: transactions in groups of size >= 2.
        lcc_size: largest dependency group size (absolute, transactions).
        total_weight: sum of transaction weights (tx count when weights
            are unit; gas when gas-weighted).
        conflicted_weight: weight carried by conflicted transactions.
        lcc_weight: weight of the heaviest dependency group.
    """

    num_transactions: int
    num_conflicted: int
    lcc_size: int
    total_weight: float
    conflicted_weight: float
    lcc_weight: float

    def __post_init__(self) -> None:
        if self.num_conflicted > self.num_transactions:
            raise ValueError("conflicted count exceeds transaction count")
        if self.lcc_size > self.num_transactions:
            raise ValueError("LCC size exceeds transaction count")

    @property
    def single_conflict_rate(self) -> float:
        """Unweighted single-transaction conflict rate ``c``."""
        if self.num_transactions == 0:
            return 0.0
        return self.num_conflicted / self.num_transactions

    @property
    def group_conflict_rate(self) -> float:
        """Unweighted group conflict rate ``l`` (relative LCC size)."""
        if self.num_transactions == 0:
            return 0.0
        return self.lcc_size / self.num_transactions

    @property
    def weighted_single_conflict_rate(self) -> float:
        """Share of block weight carried by conflicted transactions."""
        if self.total_weight == 0:
            return 0.0
        return self.conflicted_weight / self.total_weight

    @property
    def weighted_group_conflict_rate(self) -> float:
        """Share of block weight carried by the heaviest group."""
        if self.total_weight == 0:
            return 0.0
        return self.lcc_weight / self.total_weight

    @property
    def is_fully_concurrent(self) -> bool:
        """True when no two transactions in the block conflict."""
        return self.num_conflicted == 0


def compute_block_metrics(
    tdg: TDGResult,
    weights: Mapping[str, float] | None = None,
) -> BlockMetrics:
    """Derive :class:`BlockMetrics` from a block's TDG.

    Args:
        tdg: the block's dependency partition.
        weights: optional per-transaction weights (e.g. gas used).
            Missing entries default to 1.0; unit weights reduce the
            weighted rates to the unweighted ones.

    The *group conflict rate invariant* — group rate <= single rate —
    holds by construction whenever any group has size >= 2, since the
    LCC is a subset of the conflicted transactions; with no conflicts
    the single rate is 0 while the group rate is 1/x (a lone transaction
    is its own LCC).  Property tests pin this down.
    """
    num_conflicted = 0
    lcc_size = 0
    total_weight = 0.0
    conflicted_weight = 0.0
    lcc_weight = 0.0
    for group in tdg.groups:
        size = len(group)
        if weights is None:
            group_weight = float(size)
        else:
            group_weight = sum(
                [float(weights.get(tx_hash, 1.0)) for tx_hash in group]
            )
        total_weight += group_weight
        if size > 1:
            num_conflicted += size
            conflicted_weight += group_weight
        if size > lcc_size:
            lcc_size = size
        if group_weight > lcc_weight:
            lcc_weight = group_weight
    return BlockMetrics(
        num_transactions=tdg.num_transactions,
        num_conflicted=num_conflicted,
        lcc_size=lcc_size,
        total_weight=total_weight,
        conflicted_weight=conflicted_weight,
        lcc_weight=lcc_weight,
    )
