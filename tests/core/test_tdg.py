"""Tests for TDG construction in both data models (paper §III-A)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.account.receipts import ExecutedTransaction, Receipt
from repro.account.transaction import (
    InternalTransaction,
    make_account_transaction,
    make_coinbase_transaction,
)
from repro import obs
from repro.core.components import (
    UnionFind,
    build_adjacency,
    components_as_partition,
    connected_components_bfs,
)
from repro.core.tdg import (
    TDGResult,
    account_tdg,
    account_tdg_from_edges,
    storage_conflict_groups,
    utxo_tdg,
    utxo_tdg_from_arrays,
)
from repro.utxo.transaction import TxOutputSpec, make_coinbase, make_transaction
from repro.utxo.txo import COIN, OutPoint


class TestTDGResult:
    def test_group_coverage_enforced(self):
        with pytest.raises(ValueError):
            TDGResult(transactions=("a", "b"), labels=(0, 0), sizes=(1, 0))
        with pytest.raises(ValueError):
            TDGResult(transactions=("a", "b"), labels=(0,), sizes=(2, 0))

    def test_derived_counts(self):
        tdg = TDGResult.from_groups((("a", "b", "c"), ("d",), ("e", "f")))
        assert tdg.num_transactions == 6
        assert tdg.num_conflicted == 5
        assert tdg.lcc_size == 3
        assert tdg.group_sizes() == [3, 2, 1]
        assert tdg.groups == (("a", "b", "c"), ("d",), ("e", "f"))


class TestUTXOTDG:
    def _chain_block(self):
        """Coinbase + A, B spends A, C independent."""
        cb = make_coinbase(reward=100 * COIN, miner="m", height=9)
        a = make_transaction(
            inputs=[cb.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=100 * COIN, owner="x")],
            nonce="a",
        )
        b = make_transaction(
            inputs=[a.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=100 * COIN, owner="y")],
            nonce="b",
        )
        c = make_transaction(
            inputs=(),
            outputs=[TxOutputSpec(value=1, owner="z")],
            nonce="c",
        )
        # c has no inputs, which would make it a coinbase; give it one
        # external input instead.
        c = make_transaction(
            inputs=[b.outputs[0].outpoint],
            outputs=[TxOutputSpec(value=100 * COIN, owner="z")],
            nonce="c2",
        )
        return cb, a, b, c

    def test_intra_block_spend_creates_edge(self):
        cb, a, b, _ = self._chain_block()
        tdg = utxo_tdg([cb, a, b])
        assert tdg.num_transactions == 2
        assert tdg.lcc_size == 2
        assert tdg.num_conflicted == 2

    def test_coinbase_spend_is_not_an_edge_to_coinbase(self):
        """Spending the same-block coinbase: coinbase is ignored."""
        cb, a, _, _ = self._chain_block()
        tdg = utxo_tdg([cb, a])
        assert tdg.num_transactions == 1
        assert tdg.num_conflicted == 0

    def test_spend_of_prior_block_output_is_no_conflict(self):
        cb, a, b, c = self._chain_block()
        # Only c in this block; its input (b) is in an earlier block.
        tdg = utxo_tdg([c])
        assert tdg.num_conflicted == 0
        assert tdg.lcc_size == 1

    def test_full_chain_is_one_group(self):
        cb, a, b, c = self._chain_block()
        tdg = utxo_tdg([cb, a, b, c])
        assert tdg.lcc_size == 3

    def test_from_arrays_matches_paper_udf_interface(self):
        tdg = utxo_tdg_from_arrays(
            block_txs=["t1", "t2", "t3"],
            spending=["t2", "t3"],
            spent=["t1", "external"],
        )
        assert tdg.num_transactions == 3
        assert tdg.lcc_size == 2
        assert tdg.num_conflicted == 2

    def test_from_arrays_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            utxo_tdg_from_arrays(["a"], ["a"], [])


# Hashes from an alphabet small enough that blocks repeat a hash, pairs
# repeat and pair a hash with itself, plus two that are never in a block
# (spends of older blocks).
_tx_hashes = st.sampled_from([f"t{i}" for i in range(10)])
_any_hashes = st.one_of(_tx_hashes, st.sampled_from(["old0", "old1"]))


def _reference_utxo_tdg(block_txs, pairs):
    """Groups over the dict-keyed ``UnionFind``, bucketed by root in
    first-seen order with members in block order, and the in-block
    ``(creator, spender)`` edges."""
    nodes = list(dict.fromkeys(block_txs))
    in_block = set(nodes)
    edges = [
        (creator, spender)
        for spender, creator in pairs
        if creator in in_block and spender in in_block
    ]
    forest = UnionFind()
    for node in nodes:
        forest.add(node)
    for creator, spender in edges:
        forest.union(creator, spender)
    groups: dict[object, list[str]] = {}
    for node in nodes:
        groups.setdefault(forest.find(node), []).append(node)
    return nodes, edges, tuple(tuple(group) for group in groups.values())


def _utxo_counters(build):
    """Run *build* recording ``repro.obs``; its TDG and ``tdg.*`` counters."""
    with obs.instrumented() as state:
        tdg = build()
    counters = state.registry.snapshot()["counters"]
    return tdg, {
        name: counters.get(f"tdg.{name}{{model=utxo}}", 0.0)
        for name in ("builds", "edges_scanned", "edges_in_block",
                     "components_merged")
    }


def _check_utxo_contract(tdg, nodes, edges, groups):
    # Equal tuples: the same partition, groups in the order of their
    # first transaction, members in block order.
    assert tdg.groups == groups
    assert tdg.num_transactions == len(nodes)
    # The paper's BFS seeds each component at its first block-order
    # transaction: the same partition, the same first members.
    bfs = connected_components_bfs(build_adjacency(nodes, edges))
    assert components_as_partition(bfs) == components_as_partition(groups)
    assert [component[0] for component in bfs] == [
        group[0] for group in tdg.groups
    ]


@settings(max_examples=300)
@given(
    block_txs=st.lists(_tx_hashes, max_size=12),
    pairs=st.lists(st.tuples(_any_hashes, _any_hashes), max_size=16),
)
@example(
    block_txs=["t3", "t1", "t2", "t1", "t4", "t5"],   # t1 repeated
    pairs=[
        ("t2", "t4"),    # spender listed before its creator
        ("t5", "old0"),  # spend of an older block: no edge
        ("old1", "t3"),  # spender outside the block: no edge
        ("t1", "t1"),    # self pair: no merge
        ("t1", "t5"),    # joins t1 to t5, after t5 joined nothing
        ("t4", "t1"),    # ... and t2/t4 to t1/t5
    ],
)
def test_utxo_tdg_from_arrays_order_contract(block_txs, pairs):
    tdg, counters = _utxo_counters(lambda: utxo_tdg_from_arrays(
        block_txs,
        spending=[spender for spender, _creator in pairs],
        spent=[creator for _spender, creator in pairs],
    ))
    nodes, edges, groups = _reference_utxo_tdg(block_txs, pairs)
    _check_utxo_contract(tdg, nodes, edges, groups)
    assert counters == {
        "builds": 1.0,
        "edges_scanned": float(len(pairs)),
        "edges_in_block": float(len(edges)),
        "components_merged": float(len(nodes) - len(groups)),
    }


@st.composite
def _utxo_blocks(draw):
    """A block of transaction objects: each spends outputs of earlier
    created ones (the coinbase's included) or of an older block; the
    block order is any permutation of creation order, so a spender may
    come before its creator, and some transactions appear twice."""
    created = [make_coinbase(reward=50 * COIN, miner="m", height=1)]
    for nonce in range(draw(st.integers(min_value=0, max_value=9))):
        spends = draw(st.lists(
            st.integers(min_value=-1, max_value=len(created) - 1),
            min_size=1, max_size=3,
        ))
        inputs = [
            OutPoint(tx_hash="old", index=index) if spent < 0
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
def test_utxo_tdg_order_contract(block):
    regular = [tx for tx in block if not tx.is_coinbase]
    block_txs = [tx.tx_hash for tx in regular]
    pairs = [
        (tx.tx_hash, outpoint.tx_hash)
        for tx in regular for outpoint in tx.inputs
    ]
    tdg, counters = _utxo_counters(lambda: utxo_tdg(block))
    nodes, edges, groups = _reference_utxo_tdg(block_txs, pairs)
    _check_utxo_contract(tdg, nodes, edges, groups)
    assert tdg == utxo_tdg_from_arrays(
        block_txs,
        spending=[spender for spender, _creator in pairs],
        spent=[creator for _spender, creator in pairs],
    )
    # The edges scanned on this path are the in-block ones, counted
    # once per listed transaction.
    assert counters == {
        "builds": 1.0,
        "edges_scanned": float(len(edges)),
        "edges_in_block": float(len(edges)),
        "components_merged": float(len(nodes) - len(groups)),
    }


def _executed(sender, receiver, internals=(), nonce=0, reads=(), writes=(),
              value=1):
    tx = make_account_transaction(
        sender=sender, receiver=receiver, value=value, nonce=nonce
    )
    receipt = Receipt(
        tx_hash=tx.tx_hash,
        success=True,
        gas_used=21_000,
        internal_transactions=tuple(internals),
        storage_reads=frozenset(reads),
        storage_writes=frozenset(writes),
    )
    return ExecutedTransaction(tx=tx, receipt=receipt)


class TestAccountTDG:
    def test_shared_receiver_conflicts(self):
        """Fig. 1b's Poloniex pattern: fan-in to one address."""
        items = [
            _executed(f"0xu{i}", "0xexchange", nonce=i) for i in range(5)
        ]
        tdg = account_tdg(items)
        assert tdg.num_conflicted == 5
        assert tdg.lcc_size == 5

    def test_shared_sender_conflicts(self):
        """Fig. 1a's DwarfPool pattern: one sender, two receivers."""
        items = [
            _executed("0xpool", "0xr1", nonce=0),
            _executed("0xpool", "0xr2", nonce=1),
            _executed("0xother", "0xr3", nonce=0),
        ]
        tdg = account_tdg(items)
        assert tdg.num_conflicted == 2
        assert tdg.lcc_size == 2

    def test_internal_transactions_bridge_components(self):
        internal = InternalTransaction(
            sender="0xb", receiver="0xd", depth=2
        )
        items = [
            _executed("0xa", "0xb", internals=[internal]),
            _executed("0xc", "0xd", nonce=0),
        ]
        tdg = account_tdg(items)
        assert tdg.lcc_size == 2

    def test_coinbase_excluded(self):
        cb = make_coinbase_transaction(miner="0xm", reward=1, height=0)
        cb_item = ExecutedTransaction(
            tx=cb,
            receipt=Receipt(tx_hash=cb.tx_hash, success=True, gas_used=0),
        )
        items = [cb_item, _executed("0xa", "0xb")]
        tdg = account_tdg(items)
        assert tdg.num_transactions == 1

    def test_address_components_exposed(self):
        items = [_executed("0xa", "0xb"), _executed("0xc", "0xd")]
        tdg = account_tdg(items)
        partition = {frozenset(c) for c in tdg.address_components}
        assert frozenset({"0xa", "0xb"}) in partition

    def test_empty_edge_list_is_isolated(self):
        tdg = account_tdg_from_edges({"t1": [], "t2": []})
        assert tdg.num_transactions == 2
        assert tdg.num_conflicted == 0


# An alphabet small enough that random pair lists repeat pairs, pair an
# address with itself and hold pairs that share no address, and large
# enough that late transactions still bring new addresses to old
# components (a forest that only ever grows downward hides a wrong root).
_addresses = st.sampled_from([f"0x{i:x}" for i in range(16)])
_pair_lists = st.lists(st.tuples(_addresses, _addresses), max_size=3)
_tx_edge_maps = st.lists(_pair_lists, max_size=16).map(
    lambda lists: {f"t{i}": pairs for i, pairs in enumerate(lists)}
)


def _reference_account_tdg(tx_edges):
    """Groups and address components over the dict-keyed ``UnionFind``:
    every pair united, every pair tied back to the transaction's first
    address, both outputs bucketed by root in first-seen order."""
    forest = UnionFind()
    for pairs in tx_edges.values():
        for sender, receiver in pairs:
            forest.union(sender, receiver)
            forest.union(pairs[0][0], sender)
    groups: dict[object, list[str]] = {}
    for tx_hash, pairs in tx_edges.items():
        key = forest.find(pairs[0][0]) if pairs else ("no pairs", tx_hash)
        groups.setdefault(key, []).append(tx_hash)
    components: dict[object, list[str]] = {}
    for pairs in tx_edges.values():
        for pair in pairs:
            for address in pair:
                members = components.setdefault(forest.find(address), [])
                if address not in members:
                    members.append(address)
    return (
        tuple(tuple(group) for group in groups.values()),
        tuple(tuple(members) for members in components.values()),
    )


@settings(max_examples=300)
@given(tx_edges=_tx_edge_maps)
@example(tx_edges={
    "t0": [("0xa", "0xb"), ("0xc", "0xd")],   # pairs share no address
    "t1": [],
    "t2": [("0xd", "0xd"), ("0xd", "0xd")],   # self-pair, repeated
    "t3": [("0xe", "0xf")],
    "t4": [("0xf", "0xb")],                   # joins t3 to t0's group
})
def test_account_tdg_order_contract(tx_edges):
    tdg = account_tdg_from_edges(tx_edges)
    groups, components = _reference_account_tdg(tx_edges)
    # Equal tuples: the same partitions, groups in the order of their
    # first transaction and components of their first-seen address,
    # members in mapping / first-seen order.
    assert tdg.groups == groups
    assert tdg.address_components == components
    assert tdg.num_transactions == len(tx_edges)

    component_of = {
        address: members
        for members in tdg.address_components for address in members
    }
    for tx_hash, pairs in tx_edges.items():
        assert sum(tx_hash in group for group in tdg.groups) == 1
        if not pairs:
            assert (tx_hash,) in tdg.groups
        touched = {address for pair in pairs for address in pair}
        assert len({component_of[address] for address in touched}) <= 1
    assert set(component_of) == {
        address
        for pairs in tx_edges.values() for pair in pairs for address in pair
    }


class TestStorageConflictAblation:
    def test_same_address_different_keys_do_not_conflict(self):
        """The §III-A5 distinction from ref. [17]: storage-level is finer."""
        items = [
            _executed(
                "0xa", "0xtoken", nonce=0, value=0,
                writes=[("0xtoken", "k1")],
            ),
            _executed(
                "0xb", "0xtoken", nonce=0, value=0,
                writes=[("0xtoken", "k2")],
            ),
        ]
        address_level = account_tdg(items)
        storage_level = storage_conflict_groups(items)
        assert address_level.num_conflicted == 2   # shared receiver
        assert storage_level.num_conflicted == 0   # disjoint locations

    def test_write_write_conflicts(self):
        items = [
            _executed("0xa", "0xt", nonce=0, value=0, writes=[("0xt", "k")]),
            _executed("0xb", "0xt", nonce=0, value=0, writes=[("0xt", "k")]),
        ]
        assert storage_conflict_groups(items).num_conflicted == 2

    def test_read_write_conflicts(self):
        items = [
            _executed("0xa", "0xt", nonce=0, value=0, writes=[("0xt", "k")]),
            _executed("0xb", "0xu", nonce=0, value=0, reads=[("0xt", "k")]),
        ]
        assert storage_conflict_groups(items).num_conflicted == 2

    def test_balance_transfers_conflict_via_shared_party(self):
        items = [
            _executed("0xa", "0xshared", nonce=0),
            _executed("0xb", "0xshared", nonce=0),
        ]
        assert storage_conflict_groups(items).num_conflicted == 2

    def test_storage_never_exceeds_address_level(self, small_ethereum_builder):
        """Address-level TDG finds at least as many conflicts (§III-A5)."""
        for _block, executed in small_ethereum_builder.executed_blocks[-10:]:
            address_level = account_tdg(executed)
            storage_level = storage_conflict_groups(executed)
            assert (
                storage_level.num_conflicted <= address_level.num_conflicted
            )


def _reference_storage_conflict_groups(executed):
    """Storage-level groups over the dict-keyed ``UnionFind``, walking
    each transaction's writes then reads against the first writer and
    the readers of every location; groups bucketed by root in
    first-seen order.  Returns the result and the locations tracked
    (distinct written plus distinct read)."""
    forest = UnionFind()
    writers: dict[tuple[str, str], str] = {}
    readers: dict[tuple[str, str], list[str]] = {}
    hashes: list[str] = []
    for item in executed:
        if item.is_coinbase:
            continue
        tx_hash = item.tx_hash
        hashes.append(tx_hash)
        forest.add(tx_hash)
        writes = set(item.receipt.storage_writes)
        writes.add((item.tx.sender, "__balance__"))
        if item.tx.value > 0:
            writes.add((item.tx.receiver, "__balance__"))
        for internal in item.receipt.internal_transactions:
            if internal.value > 0:
                writes.add((internal.sender, "__balance__"))
                writes.add((internal.receiver, "__balance__"))
        for location in writes:
            if location in writers:
                forest.union(writers[location], tx_hash)
            else:
                writers[location] = tx_hash
            for reader in readers.get(location, ()):
                forest.union(reader, tx_hash)
        for location in item.receipt.storage_reads:
            readers.setdefault(location, []).append(tx_hash)
            if location in writers:
                forest.union(writers[location], tx_hash)
    groups: dict[object, list[str]] = {}
    for tx_hash in hashes:
        groups.setdefault(forest.find(tx_hash), []).append(tx_hash)
    result = TDGResult.from_groups(groups.values())
    return result, len(writers) + len(readers)


@pytest.mark.parametrize("chain", ["ethereum", "zilliqa"])
@pytest.mark.parametrize("seed", [1, 2])
def test_storage_groups_equal_the_union_find_walk(chain, seed):
    """Same groups in the same order, and the same locations counted."""
    from repro.workload.account_workload import build_account_chain
    from repro.workload.profiles import PROFILES_BY_NAME

    builder = build_account_chain(
        PROFILES_BY_NAME[chain], num_blocks=8, seed=seed, scale=0.5
    )
    conflicted = 0
    for _block, executed in builder.executed_blocks:
        reference, tracked = _reference_storage_conflict_groups(executed)
        with obs.instrumented() as state:
            result = storage_conflict_groups(executed)
        counters = state.registry.snapshot()["counters"]
        assert result == reference
        assert counters["tdg.locations_tracked{model=storage}"] == tracked
        conflicted += result.num_conflicted
    assert conflicted > 0
