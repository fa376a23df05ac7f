"""Geth-style trace flattening.

The BigQuery Ethereum dataset's ``traces`` table is produced by geth's
tracer: one row per message call, including the top-level call of each
regular transaction.  This module converts executed transactions into
that flat row format, which both the dataset layer and the paper's
internal-transaction definition ("any interaction ... that generates a
so-called trace in the geth client") consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.account.receipts import ExecutedTransaction


@dataclass(frozen=True)
class TraceRow:
    """One flattened trace row (BigQuery ``traces`` schema subset)."""

    block_number: int
    transaction_hash: str
    from_address: str
    to_address: str
    value: int
    trace_type: str       # "call", "transfer", "create", "reward"
    trace_address: str    # dotted path, "" for the top-level call
    depth: int
    status: int           # 1 success, 0 failure


def trace_rows_for_block(
    block_number: int,
    executed: list[ExecutedTransaction],
) -> list[TraceRow]:
    """Flatten every transaction in a block into trace rows.

    The top-level call of a regular transaction becomes a row with an
    empty ``trace_address``; internal transactions get dotted positional
    paths ("0", "1", "1.0", ...) approximated from their order and depth.
    Coinbase transactions become "reward" rows (excluded from TDGs by the
    query layer, matching the paper's treatment).
    """
    rows: list[TraceRow] = []
    for item in executed:
        tx, receipt = item.tx, item.receipt
        status = 1 if receipt.success else 0
        if tx.is_coinbase:
            rows.append(
                TraceRow(
                    block_number=block_number,
                    transaction_hash=tx.tx_hash,
                    from_address=tx.sender,
                    to_address=tx.receiver,
                    value=tx.value,
                    trace_type="reward",
                    trace_address="",
                    depth=0,
                    status=1,
                )
            )
            continue
        trace_type = "create" if tx.is_contract_creation else "call"
        rows.append(
            TraceRow(
                block_number=block_number,
                transaction_hash=tx.tx_hash,
                from_address=tx.sender,
                to_address=(
                    receipt.created_contract
                    if tx.is_contract_creation and receipt.created_contract
                    else tx.receiver
                ),
                value=tx.value,
                trace_type=trace_type,
                trace_address="",
                depth=0,
                status=status,
            )
        )
        # Internal transactions: derive dotted paths from (depth, order).
        counters: dict[int, int] = {}
        path_at_depth: dict[int, str] = {}
        for internal in receipt.internal_transactions:
            index = counters.get(internal.depth, 0)
            counters[internal.depth] = index + 1
            parent = path_at_depth.get(internal.depth - 1, "")
            path = f"{parent}.{index}" if parent else str(index)
            path_at_depth[internal.depth] = path
            rows.append(
                TraceRow(
                    block_number=block_number,
                    transaction_hash=tx.tx_hash,
                    from_address=internal.sender,
                    to_address=internal.receiver,
                    value=internal.value,
                    trace_type=internal.call_type,
                    trace_address=path,
                    depth=internal.depth,
                    status=status,
                )
            )
    return rows
