"""End-to-end analysis pipeline: chains in, metric histories out.

This is the reproduction's equivalent of the paper's BigQuery queries:
it walks a chain block by block, builds each block's TDG, computes the
concurrency metrics, and collects everything into a
:class:`ChainHistory` that the figure builders and speed-up models
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.chain.block import Block
from repro.chain.ledger import Ledger
from repro.core.metrics import BlockMetrics, compute_block_metrics
from repro.core.tdg import TDGResult, account_tdg, utxo_tdg
from repro.utxo.transaction import UTXOTransaction


@dataclass(frozen=True)
class BlockRecord:
    """Everything the analysis retains about one block.

    Attributes:
        height: block height.
        timestamp: block timestamp (UNIX seconds).
        num_transactions: regular (non-coinbase) transactions.
        num_internal: internal transactions (account model only).
        num_input_txos: input TXO count (UTXO model only) — the second
            series of the paper's Fig. 5a.
        gas_used: total gas consumed (account model only).
        size_bytes: serialised block size (UTXO model weighting).
        metrics: the block's concurrency metrics.
    """

    height: int
    timestamp: float
    num_transactions: int
    metrics: BlockMetrics
    num_internal: int = 0
    num_input_txos: int = 0
    gas_used: float = 0.0
    size_bytes: float = 0.0

    @property
    def total_transactions(self) -> int:
        """Regular plus internal transactions (Fig. 4a's 'all TXs')."""
        return self.num_transactions + self.num_internal

    @property
    def weight_tx(self) -> float:
        """Block weight when weighting by transaction count."""
        return float(self.num_transactions)

    @property
    def weight_gas(self) -> float:
        """Block weight when weighting by gas (falls back to tx count)."""
        return self.gas_used if self.gas_used > 0 else float(self.num_transactions)

    @property
    def weight_size(self) -> float:
        """Block weight when weighting by size (falls back to tx count)."""
        return self.size_bytes if self.size_bytes > 0 else float(self.num_transactions)


SECONDS_PER_YEAR = 365.25 * 24 * 3600


@dataclass
class ChainHistory:
    """The full per-block metric history of one simulated chain.

    ``start_year`` anchors block timestamps to calendar time; the
    figure builders use it to label buckets with years as the paper's
    x-axes do.
    """

    name: str
    data_model: str  # "utxo" or "account"
    records: list[BlockRecord] = field(default_factory=list)
    start_year: float = 0.0

    def __post_init__(self) -> None:
        if self.data_model not in ("utxo", "account"):
            raise ValueError(f"unknown data model {self.data_model!r}")

    def year_of(self, record: BlockRecord) -> float:
        """Calendar year of *record* (timestamp offset from start_year)."""
        return self.start_year + record.timestamp / SECONDS_PER_YEAR

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: BlockRecord) -> None:
        if self.records and record.height <= self.records[-1].height:
            raise ValueError("records must be appended in height order")
        self.records.append(record)

    def non_empty_records(self) -> list[BlockRecord]:
        """Records of blocks with at least one regular transaction."""
        return [r for r in self.records if r.num_transactions > 0]

    def mean_transactions_per_block(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.num_transactions for r in self.records) / len(self.records)


# -- per-block analysis -------------------------------------------------------


def analyze_utxo_block(
    transactions: Sequence[UTXOTransaction],
    *,
    height: int,
    timestamp: float,
) -> tuple[BlockRecord, TDGResult]:
    """Build the TDG and metrics for one UTXO block."""
    num_regular = 0
    num_input_txos = 0
    size_bytes = 0
    for tx in transactions:
        size_bytes += tx.size_bytes
        if not tx.is_coinbase:
            num_regular += 1
            num_input_txos += len(tx.inputs)
    tdg = utxo_tdg(transactions)
    metrics = compute_block_metrics(tdg)
    record = BlockRecord(
        height=height,
        timestamp=timestamp,
        num_transactions=num_regular,
        metrics=metrics,
        num_input_txos=num_input_txos,
        size_bytes=float(size_bytes),
    )
    obs.counter("pipeline.blocks", model="utxo").inc()
    obs.counter("pipeline.transactions", model="utxo").inc(num_regular)
    return record, tdg


def analyze_account_block(
    executed: Sequence[ExecutedTransaction],
    *,
    height: int,
    timestamp: float,
) -> tuple[BlockRecord, TDGResult]:
    """Build the TDG and gas-weighted metrics for one account block."""
    regular = [item for item in executed if not item.tx.is_coinbase]
    tdg = account_tdg(regular)
    gas_weights: dict[str, float] = {}
    gas_used = 0
    num_internal = 0
    for item in regular:
        receipt = item.receipt
        gas = receipt.gas_used
        gas_used += gas
        num_internal += len(receipt.internal_transactions)
        gas_weights[receipt.tx_hash] = float(max(gas, 1))
    metrics = compute_block_metrics(tdg, weights=gas_weights)
    record = BlockRecord(
        height=height,
        timestamp=timestamp,
        num_transactions=len(regular),
        metrics=metrics,
        num_internal=num_internal,
        gas_used=float(gas_used),
    )
    obs.counter("pipeline.blocks", model="account").inc()
    obs.counter("pipeline.transactions", model="account").inc(len(regular))
    return record, tdg


# -- whole-chain analysis -----------------------------------------------------


def analyze_utxo_ledger(
    ledger: Ledger[UTXOTransaction],
    *,
    name: str,
    start_year: float = 0.0,
    backend: str = "serial",
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> ChainHistory:
    """Run the pipeline over every block of a UTXO ledger.

    ``backend`` / ``jobs`` / ``chunk_size`` select the analysis backend
    (see :func:`repro.core.parallel.analyze_chain`); the default walks
    the chain serially, and every backend yields an identical history.
    """
    from repro.core.parallel import analyze_chain

    return analyze_chain(
        ledger,
        data_model="utxo",
        name=name,
        start_year=start_year,
        backend=backend,
        jobs=jobs,
        chunk_size=chunk_size,
    )


def analyze_account_blocks(
    blocks: Iterable[tuple[Block, Sequence[ExecutedTransaction]]],
    *,
    name: str,
    start_year: float = 0.0,
    backend: str = "serial",
    jobs: int | None = None,
    chunk_size: int | None = None,
) -> ChainHistory:
    """Run the pipeline over (block, executed transactions) pairs.

    Accepts the same backend selection as :func:`analyze_utxo_ledger`.
    """
    from repro.core.parallel import analyze_chain

    return analyze_chain(
        blocks,
        data_model="account",
        name=name,
        start_year=start_year,
        backend=backend,
        jobs=jobs,
        chunk_size=chunk_size,
    )
