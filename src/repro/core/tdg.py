"""Transaction dependency graph (TDG) construction — paper §III-A.

A block is modelled as a graph whose meaning depends on the data model:

* **UTXO**: nodes are the block's transactions; an edge ``a -> b`` exists
  when a TXO created by ``a`` is spent by ``b`` (both in the block).
* **Account**: nodes are *addresses* referenced by the block's regular
  and internal transactions; each (sender, receiver) pair is an edge.
  Conflict is then lifted back to transactions: a transaction conflicts
  with another when their endpoints share a connected component.

Coinbase transactions are ignored in both models (§III-A1).

The central output type is :class:`TDGResult`, which groups the block's
transactions into dependency classes; everything downstream (conflict
rates, LCC sizes, speed-up predictions, the grouped executor) works from
this one structure.

Both models compute their components the same way: nodes are interned
to integers and united in a ``list[int]`` parent array in which the
smaller root wins, so a root is always its component's first node and
one ascending pass points every node at its root.  The UTXO half
interns transactions to their block position and unites each in-block
spender with its creator (:func:`utxo_tdg_from_arrays`); the account
half interns addresses in first-seen order
(:func:`account_tdg_from_edges`).  Each states the order of what it
returns — groups by first transaction, members in block order — and
callers and the golden TDG digest rely on it.  The paper's UDF itself
(Fig. 3, an adjacency map and a breadth-first search) is ported in
:func:`repro.datasets.queries.process_graph`; the BFS in
:mod:`repro.core.components` is the tests' reference.

A third constructor, :func:`storage_conflict_groups`, implements the
*storage-location-level* conflict definition of Saraph & Herlihy
(ref. [17]) for the ablation discussed in §III-A5; it groups those
locations with the execution engines' own
:func:`~repro.execution.conflict_partition.conflict_partition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.utxo.transaction import UTXOTransaction


@dataclass(frozen=True)
class TDGResult:
    """A block's transactions partitioned into dependency groups.

    Attributes:
        groups: tuple of transaction-hash groups; transactions in the
            same group must execute sequentially, transactions in
            different groups are mutually independent.
        num_transactions: total non-coinbase transactions considered.
        address_components: for account-model blocks, the underlying
            address components (empty for UTXO blocks); retained for
            rendering examples like paper Fig. 1.
    """

    groups: tuple[tuple[str, ...], ...]
    num_transactions: int
    address_components: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self) -> None:
        grouped = sum(map(len, self.groups))
        if grouped != self.num_transactions:
            raise ValueError(
                f"groups cover {grouped} transactions, expected "
                f"{self.num_transactions}"
            )

    @property
    def num_conflicted(self) -> int:
        """Transactions sharing a group with at least one other (§III-A2)."""
        return sum(len(group) for group in self.groups if len(group) > 1)

    @property
    def lcc_size(self) -> int:
        """Size of the largest dependency group, in transactions."""
        return max((len(group) for group in self.groups), default=0)

    def group_sizes(self) -> list[int]:
        """Sizes of all groups, descending — input to the schedulers."""
        return sorted((len(group) for group in self.groups), reverse=True)

    def group_of(self, tx_hash: str) -> tuple[str, ...]:
        """Return the dependency group containing *tx_hash*."""
        for group in self.groups:
            if tx_hash in group:
                return group
        raise KeyError(f"transaction {tx_hash!r} not in this TDG")


# -- UTXO model -------------------------------------------------------------


def utxo_tdg(transactions: Sequence[UTXOTransaction]) -> TDGResult:
    """Build the TDG of a UTXO block from its transaction objects.

    An edge links the creator of a TXO to its spender when both sit in
    this block; coinbases are dropped entirely.  The order contract is
    :func:`utxo_tdg_from_arrays`'s, with the block's regular
    transactions as ``block_txs``.
    """
    nodes = list(dict.fromkeys(
        [tx.tx_hash for tx in transactions if not tx.is_coinbase]
    ))
    index = dict(zip(nodes, range(len(nodes))))
    # A coinbase spends nothing, so every spender found here is a node.
    edges = [
        (index[outpoint.tx_hash], index[tx.tx_hash])
        for tx in transactions
        for outpoint in tx.inputs
        if outpoint.tx_hash in index
    ]
    return _utxo_forest(nodes, edges, scanned=len(edges))


def utxo_tdg_from_arrays(
    block_txs: Iterable[str],
    spending: Sequence[str],
    spent: Sequence[str],
) -> TDGResult:
    """Build a UTXO TDG from BigQuery-style parallel arrays.

    Mirrors the interface of the paper's ``process_graph`` UDF (Fig. 2):
    the ``i``-th element of *spending* is the hash of the transaction
    spending some input TXO, and the ``i``-th element of *spent* is the
    hash of the transaction that created it.  Pairs with either hash
    outside *block_txs* contribute no edge (spends of older blocks).

    Order contract: ``groups`` come in the order of their first
    transaction in *block_txs*, members in that order; a hash repeated
    in *block_txs* is one transaction, at its first position.
    """
    if len(spending) != len(spent):
        raise ValueError("spending and spent arrays must be parallel")
    nodes = list(dict.fromkeys(block_txs))
    index = dict(zip(nodes, range(len(nodes))))
    edges = [
        (creator, spender)
        for spender, creator in zip(map(index.get, spending),
                                    map(index.get, spent))
        if spender is not None and creator is not None
    ]
    return _utxo_forest(nodes, edges, scanned=len(spending))


def _utxo_forest(
    nodes: list[str], edges: list[tuple[int, int]], *, scanned: int
) -> TDGResult:
    """Group *nodes* (hashes by position) under *edges* between positions.

    The forest is a parent array over the positions in which the
    smaller root wins, so a root is always its group's first member and
    a parent is always the smaller position.  Only the nodes an edge
    touches can leave their own group; one ascending pass over them
    points each at its root and moves it into its root's group.
    """
    parent = list(range(len(nodes)))
    for a, b in edges:
        while parent[a] != a:  # find, path halving
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b

    # Every node starts as its own group; a merged group is built
    # in block order under its root's position and the other
    # members' places are emptied.
    groups: list[tuple[str, ...] | None] = list(zip(nodes))
    members: dict[int, list[str]] = {}
    for node in sorted({node for edge in edges for node in edge}):
        root = parent[node] = parent[parent[node]]
        if root != node:
            if root not in members:
                members[root] = [nodes[root]]
            members[root].append(nodes[node])
            groups[node] = None
    for root, group in members.items():
        groups[root] = tuple(group)
    result = TDGResult(
        groups=tuple(filter(None, groups)), num_transactions=len(nodes)
    )
    if obs.enabled():
        obs.counter("tdg.builds", model="utxo").inc()
        obs.counter("tdg.edges_scanned", model="utxo").inc(scanned)
        obs.counter("tdg.edges_in_block", model="utxo").inc(len(edges))
        obs.counter("tdg.components_merged", model="utxo").inc(
            len(nodes) - len(result.groups)
        )
    return result


# -- Account model ------------------------------------------------------------


def account_tdg(executed: Sequence[ExecutedTransaction]) -> TDGResult:
    """Build the TDG of an account-model block from executed transactions.

    Uses each transaction's regular edge plus all internal-transaction
    edges (``ExecutedTransaction.edges``); coinbases contribute nothing.
    """
    tx_edges = {
        item.tx.tx_hash: item.edges()
        for item in executed
        if not item.tx.is_coinbase
    }
    return account_tdg_from_edges(tx_edges)


def account_tdg_from_edges(
    tx_edges: Mapping[str, Sequence[tuple[str, str]]],
) -> TDGResult:
    """Build an account-model TDG from per-transaction edge lists.

    Args:
        tx_edges: maps each transaction hash to its (sender, receiver)
            pairs — the first pair being the regular transaction, the
            rest internal transactions.  A transaction with no pairs
            touches no address: it is a group of its own.

    Order contract: ``groups`` come in the order of their first
    transaction in *tx_edges*, members in mapping order;
    ``address_components`` in the order their first address was seen,
    members in first-seen order.

    Addresses are interned to their first-seen position and the forest
    is a parent array over those positions in which the smaller root
    wins.  Every endpoint of a transaction is united with the
    transaction's running root, so a transaction lands in exactly one
    component even when its pairs are not connected to each other (a
    call tree always is; degenerate inputs need not be).
    """
    index: dict[str, int] = {}
    parent: list[int] = []
    # Per transaction, some node of its component; -1 without pairs.
    anchors: list[int] = []
    for pairs in tx_edges.values():
        root = -1
        for pair in pairs:
            for address in pair:
                node = index.get(address)
                if node is None:
                    node = index[address] = len(parent)
                    parent.append(node)
                else:
                    while parent[node] != node:  # find, path halving
                        parent[node] = node = parent[parent[node]]
                if root < 0:
                    root = node
                elif node < root:
                    parent[root] = node
                    root = node
                else:
                    parent[node] = root
        anchors.append(root)
    # A parent is always the smaller position: one ascending pass
    # points every node at its root.
    for node, above in enumerate(parent):
        parent[node] = parent[above]

    groups: list[list[str]] = []
    group_at: list[list[str] | None] = [None] * len(parent)
    for tx_hash, anchor in zip(tx_edges, anchors):
        if anchor < 0:
            groups.append([tx_hash])
            continue
        group = group_at[parent[anchor]]
        if group is None:
            group = group_at[parent[anchor]] = []
            groups.append(group)
        group.append(tx_hash)

    # ``index`` iterates in first-seen order, the order of ``parent``,
    # and a root is the first-seen address of its component.
    components: dict[int, list[str]] = {}
    for address, root in zip(index, parent):
        components.setdefault(root, []).append(address)

    if obs.enabled():
        obs.counter("tdg.builds", model="account").inc()
        obs.counter("tdg.edges_scanned", model="account").inc(
            sum(len(pairs) for pairs in tx_edges.values())
        )
        obs.counter("tdg.components_merged", model="account").inc(
            len(index) - len(components)
        )
    return TDGResult(
        groups=tuple(tuple(group) for group in groups),
        num_transactions=len(tx_edges),
        address_components=tuple(
            tuple(component) for component in components.values()
        ),
    )


# -- Storage-level conflicts (ref. [17] ablation) ----------------------------


def storage_conflict_groups(
    executed: Sequence[ExecutedTransaction],
) -> TDGResult:
    """Group transactions by *storage-location* conflicts (ref. [17]).

    Two transactions conflict when one's write set intersects the
    other's read or write set, where the accessed locations are the
    receipts' storage read/write sets plus the balance cells of the
    top-level sender and receiver.  This is the finer-grained definition
    of Saraph & Herlihy, which the paper contrasts with its address-level
    TDG in §III-A5: it reports *fewer* single-transaction conflicts
    (transactions touching the same address but different storage keys
    are independent here).
    """
    # Imported here: repro.execution.engine imports this module.
    from repro.execution.conflict_partition import conflict_partition
    from repro.execution.engine import TxTask

    accesses: list[TxTask] = []
    for item in executed:
        if item.is_coinbase:
            continue
        writes = set(item.receipt.storage_writes)
        # The sender's account is always written (nonce, fee); the
        # receiver's balance only moves when value is attached — a
        # zero-value contract call touches storage keys, not balances.
        writes.add((item.tx.sender, "__balance__"))
        if item.tx.value > 0:
            writes.add((item.tx.receiver, "__balance__"))
        for internal in item.receipt.internal_transactions:
            if internal.value > 0:
                writes.add((internal.sender, "__balance__"))
                writes.add((internal.receiver, "__balance__"))
        accesses.append(TxTask(
            item.tx_hash,
            reads=frozenset(item.receipt.storage_reads),
            writes=frozenset(writes),
        ))

    groups = [
        tuple(accesses[index].tx_hash for index in group)
        for group in conflict_partition(accesses)
    ]
    if obs.enabled():
        obs.counter("tdg.builds", model="storage").inc()
        obs.counter("tdg.locations_tracked", model="storage").inc(
            len(frozenset().union(*(access.writes for access in accesses)))
            + len(frozenset().union(*(access.reads for access in accesses)))
        )
    return TDGResult(groups=tuple(groups), num_transactions=len(accesses))
