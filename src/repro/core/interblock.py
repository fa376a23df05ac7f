"""Inter-block concurrency — the paper's §VII extension.

The paper measures concurrency *within* blocks and lists "other sources
of concurrency such as intra-transaction, inter-block and
inter-blockchain" as unexplored.  This module explores the inter-block
source: treat a window of W consecutive blocks as one super-batch,
build the dependency structure across the whole window, and ask how
much faster the window executes when transactions from different
blocks may interleave (subject to true dependencies) compared with the
block-at-a-time pipeline.

For the UTXO model the cross-block edges are spends of outputs created
earlier in the window; for the account model, shared addresses across
blocks.  Both reuse the single-block TDG machinery on the concatenated
transaction list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.account.receipts import ExecutedTransaction
from repro.core.scheduling import lpt_schedule
from repro.core.tdg import TDGResult, account_tdg, utxo_tdg
from repro.utxo.transaction import UTXOTransaction


@dataclass(frozen=True)
class WindowConcurrency:
    """Concurrency accounting for one window of consecutive blocks.

    Attributes:
        window: number of blocks combined.
        num_transactions: total non-coinbase transactions in the window.
        window_tdg: dependency partition over the whole window.
        per_block_group_sizes: each block's own dependency-group sizes
            (what a block-at-a-time scheduler gets to work with).
    """

    window: int
    num_transactions: int
    window_tdg: TDGResult
    per_block_group_sizes: tuple[tuple[int, ...], ...]

    def pipeline_makespan(self, cores: int) -> float:
        """Block-at-a-time execution: blocks are barriers.

        Each block runs as its own group-scheduled batch (LPT); the
        next block cannot start before the previous finishes — what
        today's clients plus an intra-block TDG scheduler would do.
        """
        if cores < 1:
            raise ValueError("cores must be at least 1")
        total = 0.0
        for sizes in self.per_block_group_sizes:
            if not sizes:
                continue
            total += lpt_schedule([float(s) for s in sizes], cores).makespan
        return total

    def interleaved_makespan(self, cores: int) -> float:
        """Window-at-once execution: dependency groups span blocks."""
        if cores < 1:
            raise ValueError("cores must be at least 1")
        sizes = [float(s) for s in self.window_tdg.group_sizes()]
        if not sizes:
            return 0.0
        return lpt_schedule(sizes, cores).makespan

    def interblock_speedup(self, cores: int) -> float:
        """Pipeline time over interleaved time.

        Greater than 1 when interleaving across block boundaries helps
        (it usually does: each block's barrier idles cores while its
        LCC tail drains); close to 1 when blocks are internally
        parallel already.
        """
        interleaved = self.interleaved_makespan(cores)
        if interleaved == 0:
            return 1.0
        return self.pipeline_makespan(cores) / interleaved


def _group_sizes(tdg: TDGResult) -> tuple[int, ...]:
    return tuple(len(group) for group in tdg.groups)


def _window_concurrency(
    blocks: Sequence[Sequence],
    per_block_sizes: Sequence[tuple[int, ...]],
    make_tdg,
) -> WindowConcurrency:
    """The window over *blocks*, given each block's own group sizes."""
    window_tdg = make_tdg([tx for block in blocks for tx in block])
    return WindowConcurrency(
        window=len(blocks),
        num_transactions=window_tdg.num_transactions,
        window_tdg=window_tdg,
        per_block_group_sizes=tuple(per_block_sizes),
    )


def utxo_window_concurrency(
    blocks: Sequence[Sequence[UTXOTransaction]],
) -> WindowConcurrency:
    """Analyze a window of UTXO blocks (ordered transaction lists)."""
    return _window_concurrency(
        blocks, [_group_sizes(utxo_tdg(block)) for block in blocks], utxo_tdg
    )


def account_window_concurrency(
    blocks: Sequence[Sequence[ExecutedTransaction]],
) -> WindowConcurrency:
    """Analyze a window of executed account blocks."""
    return _window_concurrency(
        blocks,
        [_group_sizes(account_tdg(block)) for block in blocks],
        account_tdg,
    )


def sliding_window_speedups(
    blocks: Sequence[Sequence],
    *,
    window: int,
    cores: int,
    model: str,
) -> list[float]:
    """Inter-block speed-up for every complete window over *blocks*.

    Args:
        blocks: per-block transaction lists (model-appropriate type).
        window: window width W (>= 2 to measure anything inter-block).
        cores: simulated core count.
        model: "utxo" or "account".
    """
    if window < 1:
        raise ValueError("window must be positive")
    if model == "utxo":
        make_tdg = utxo_tdg
    elif model == "account":
        make_tdg = account_tdg
    else:
        raise ValueError(f"unknown model {model!r}")
    # A block sits in up to *window* windows; its own TDG is built once.
    sizes = [_group_sizes(make_tdg(block)) for block in blocks]
    speedups = []
    for start in range(0, len(blocks) - window + 1):
        stop = start + window
        concurrency = _window_concurrency(
            blocks[start:stop], sizes[start:stop], make_tdg
        )
        speedups.append(concurrency.interblock_speedup(cores))
    return speedups
