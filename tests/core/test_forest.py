"""The analysis reads block metrics straight off the TDG forest.

``analyze_account_block`` / ``analyze_utxo_block`` compute a block's
metrics from the forest's group labels and sizes and never turn a group
into a tuple of hashes.  These properties hold that path to the
explicit one: groups built by the paper's BFS
(:mod:`repro.core.components`), handed to
:func:`~repro.core.metrics.compute_block_metrics` as an explicit
partition, must give the same metrics, and the TDG's lazy views must
equal those groups, order included.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    NULL_ADDRESS,
    InternalTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)
from repro.core.components import build_adjacency, connected_components_bfs
from repro.core.metrics import compute_block_metrics
from repro.core.parallel import (
    account_block_inputs,
    analyze_chain,
    utxo_block_inputs,
)
from repro.core.pipeline import analyze_account_block, analyze_utxo_block
from repro.core.tdg import TDGResult, account_tdg_from_edges
from repro.utxo.transaction import TxOutputSpec, make_coinbase, make_transaction
from repro.utxo.txo import COIN, OutPoint

# Few enough addresses that transactions share them, and internal
# calls bridge otherwise separate groups.
_addresses = st.sampled_from([f"0x{i:x}" for i in range(12)])


def _reference_groups(
    tx_edges: dict[str, list[tuple[str, str]]],
) -> tuple[tuple[tuple[str, ...], ...], tuple[tuple[str, ...], ...]]:
    """Groups and address components through the paper's BFS.

    Every address of a transaction is tied to its first one, so a
    transaction whose pairs share no address is still in one component.
    Groups come by first transaction, members in mapping order;
    components by first-seen address, members in first-seen order.
    """
    first_seen = list(dict.fromkeys(
        address
        for pairs in tx_edges.values() for pair in pairs for address in pair
    ))
    edges = [
        edge
        for pairs in tx_edges.values()
        for sender, receiver in pairs
        for edge in ((sender, receiver), (pairs[0][0], sender))
    ]
    components = connected_components_bfs(build_adjacency(first_seen, edges))
    component_of = {
        address: index
        for index, component in enumerate(components)
        for address in component
    }
    groups: dict[object, list[str]] = {}
    for tx_hash, pairs in tx_edges.items():
        key = component_of[pairs[0][0]] if pairs else ("alone", tx_hash)
        groups.setdefault(key, []).append(tx_hash)
    return (
        tuple(map(tuple, groups.values())),
        tuple(
            tuple(sorted(component, key=first_seen.index))
            for component in components
        ),
    )


def _executed(tx, gas, internals=(), created=""):
    return ExecutedTransaction(tx=tx, receipt=Receipt(
        tx_hash=tx.tx_hash, success=True, gas_used=gas,
        internal_transactions=tuple(
            InternalTransaction(sender=sender, receiver=receiver)
            for sender, receiver in internals
        ),
        created_contract=created,
    ))


@st.composite
def _account_blocks(draw):
    """Executed transactions: coinbases, calls, creations with and
    without a created contract, internal calls, and hashes repeated —
    the same transaction twice, or a twin with other endpoints and gas."""
    block = []
    for nonce in range(draw(st.integers(min_value=0, max_value=10))):
        kind = draw(st.sampled_from(["call", "create", "coinbase"]))
        sender = draw(_addresses)
        if kind == "coinbase":
            block.append(_executed(
                make_coinbase_transaction(miner=sender, reward=1, height=nonce),
                gas=0,
            ))
            continue
        receiver = NULL_ADDRESS if kind == "create" else draw(_addresses)
        tx = make_account_transaction(
            sender=sender, receiver=receiver, value=1, nonce=nonce
        )
        created = f"0xc{nonce}" if kind == "create" and draw(
            st.booleans()
        ) else ""
        block.append(_executed(
            tx,
            gas=draw(st.integers(min_value=0, max_value=90_000)),
            internals=draw(st.lists(
                st.tuples(_addresses, _addresses), max_size=3
            )),
            created=created,
        ))
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if not block:
            break
        repeated = draw(st.sampled_from(block))
        if draw(st.booleans()):
            repeated = _executed(
                replace(repeated.tx, sender=draw(_addresses),
                        receiver=draw(_addresses)),
                gas=draw(st.integers(min_value=0, max_value=90_000)),
            )
        block.insert(
            draw(st.integers(min_value=0, max_value=len(block))), repeated
        )
    return block


@settings(max_examples=300)
@given(block=_account_blocks())
def test_account_metrics_from_the_forest_equal_explicit_groups(block):
    record, tdg = analyze_account_block(block, height=1, timestamp=0.0)
    # A repeated hash is one transaction at its first position, with
    # the edges and gas of its last.
    by_hash = {item.tx_hash: item for item in block if not item.is_coinbase}
    groups, components = _reference_groups(
        {tx_hash: item.edges() for tx_hash, item in by_hash.items()}
    )
    assert tdg.groups == groups
    assert tdg.address_components == components
    gas = {
        tx_hash: float(max(item.receipt.gas_used, 1))
        for tx_hash, item in by_hash.items()
    }
    assert record.metrics == compute_block_metrics(
        TDGResult.from_groups(groups), weights=gas
    )
    assert record.num_transactions == sum(
        not item.is_coinbase for item in block
    )


@settings(max_examples=300)
@given(
    block=_account_blocks(),
    bare=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
)
def test_edge_maps_with_transactions_without_pairs(block, bare):
    tx_edges = {
        item.tx_hash: item.edges() for item in block if not item.is_coinbase
    }
    for position in bare:   # some transactions lose their pairs
        for index, tx_hash in enumerate(tx_edges):
            if index == position:
                tx_edges[tx_hash] = []
    tdg = account_tdg_from_edges(tx_edges)
    groups, components = _reference_groups(tx_edges)
    assert tdg.groups == groups
    assert tdg.address_components == components
    weights = {tx_hash: float(len(tx_hash) % 7) for tx_hash in tx_edges}
    for each in (None, weights):
        assert compute_block_metrics(tdg, weights=each) == (
            compute_block_metrics(TDGResult.from_groups(groups), weights=each)
        )


@st.composite
def _utxo_blocks(draw):
    """A block whose transactions spend outputs of earlier ones (the
    coinbase's included) or of an older block, in any order, some twice."""
    created = [make_coinbase(reward=50 * COIN, miner="m", height=1)]
    for nonce in range(draw(st.integers(min_value=0, max_value=10))):
        spends = draw(st.lists(
            st.integers(min_value=-1, max_value=len(created) - 1),
            min_size=1, max_size=3,
        ))
        inputs = [
            OutPoint(tx_hash="older-block", index=index) if spent < 0
            else created[spent].outputs[0].outpoint
            for index, spent in enumerate(spends)
        ]
        created.append(make_transaction(
            inputs, [TxOutputSpec(value=1, owner="o")], nonce=nonce
        ))
    block = list(draw(st.permutations(created)))
    for tx in draw(st.lists(st.sampled_from(created), max_size=3)):
        block.insert(draw(st.integers(min_value=0, max_value=len(block))), tx)
    return block


@settings(max_examples=300)
@given(block=_utxo_blocks())
def test_utxo_metrics_from_the_forest_equal_explicit_groups(block):
    record, tdg = analyze_utxo_block(block, height=1, timestamp=0.0)
    nodes = list(dict.fromkeys(tx.tx_hash for tx in block if not tx.is_coinbase))
    edges = [
        (outpoint.tx_hash, tx.tx_hash)
        for tx in block for outpoint in tx.inputs
        if outpoint.tx_hash in nodes
    ]
    groups = tuple(
        tuple(sorted(component, key=nodes.index))
        for component in connected_components_bfs(
            build_adjacency(nodes, edges)
        )
    )
    assert tdg.groups == groups
    assert tdg.address_components == ()
    assert record.metrics == compute_block_metrics(
        TDGResult.from_groups(groups)
    )
    assert record.num_transactions == sum(
        not tx.is_coinbase for tx in block
    )


def test_analyze_chain_builds_no_group_or_component(
    monkeypatch, small_bitcoin_ledger, small_ethereum_builder
):
    """The pipeline keeps only records, so it reads neither view."""

    def refuse(_self):
        raise AssertionError("a group or an address component was built")

    monkeypatch.setattr(TDGResult, "groups", property(refuse))
    monkeypatch.setattr(TDGResult, "address_components", property(refuse))
    for data_model, inputs in (
        ("utxo", utxo_block_inputs(small_bitcoin_ledger)),
        ("account", account_block_inputs(
            small_ethereum_builder.executed_blocks
        )),
    ):
        history = analyze_chain(
            inputs, data_model=data_model, name=data_model, backend="serial"
        )
        assert len(history) == len(inputs)
        assert any(record.metrics.num_conflicted for record in history.records)
