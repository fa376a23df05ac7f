"""Transaction dependency graph (TDG) construction — paper §III-A.

A block is modelled as a graph whose meaning depends on the data model:

* **UTXO**: nodes are the block's transactions; an edge ``a -> b`` exists
  when a TXO created by ``a`` is spent by ``b`` (both in the block).
* **Account**: nodes are *addresses* referenced by the block's regular
  and internal transactions; each (sender, receiver) pair is an edge.
  Conflict is then lifted back to transactions: a transaction conflicts
  with another when their endpoints share a connected component.

Coinbase transactions are ignored in both models (§III-A1).

The central output type is :class:`TDGResult`, which partitions the
block's transactions into dependency classes; everything downstream
(conflict rates, LCC sizes, speed-up predictions, the grouped executor)
works from this one structure.

The representation is the union-find forest itself: per transaction a
group label (the position of its group's first transaction) and per
group its size.  Both models build it the same way: a ``list[int]``
parent array over the block's transaction positions in which the
smaller root wins, so a root is always its group's first transaction
and a parent is never a later position, and one labelling pass
(:func:`_label`) that points every joined position at its root.  The
UTXO half unites each in-block spender with its creator
(:func:`utxo_tdg`, :func:`utxo_tdg_from_arrays`); the account half
unites each transaction with the first transaction that referenced
each of its addresses (:func:`account_tdg`,
:func:`account_tdg_from_edges`).  The metrics read the labels and sizes
(:func:`repro.core.metrics.compute_block_metrics`), so the analysis
pipeline never turns a group into a tuple of hashes.

``TDGResult.groups`` and ``TDGResult.address_components`` are views
derived from the forest on first read, in the order every caller and
the golden TDG digest rely on: groups by first transaction, members in
block order; address components by first-seen address, members in
first-seen order.  :meth:`TDGResult.from_groups` builds the same forest
from an explicit partition.  The paper's UDF itself (Fig. 3, an
adjacency map and a breadth-first search) is ported in
:func:`repro.datasets.queries.process_graph`; the BFS in
:mod:`repro.core.components` is the tests' reference.

A third constructor, :func:`storage_conflict_groups`, implements the
*storage-location-level* conflict definition of Saraph & Herlihy
(ref. [17]) for the ablation discussed in §III-A5; it groups those
locations with the execution engines' own
:func:`~repro.execution.conflict_partition.conflict_partition`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from repro import obs
from repro.account.receipts import ExecutedTransaction
from repro.utxo.transaction import UTXOTransaction


@dataclass(frozen=True, eq=False)
class TDGResult:
    """A block's transactions partitioned into dependency groups.

    Transactions in the same group must execute sequentially,
    transactions in different groups are mutually independent.  A group
    is named by the position of its first transaction.

    Attributes:
        transactions: the non-coinbase transaction hashes considered,
            each once, in block order.
        labels: per transaction, the position of its group's first
            transaction.
        sizes: per transaction, the size of the group it is the first
            transaction of (0 for every other transaction).
        address_owners: for account-model blocks, every address the
            block references, in first-seen order, mapped to the
            position of the first transaction that references it (empty
            for UTXO blocks); retained for rendering examples like
            paper Fig. 1.

    Two results are equal when their :attr:`groups` and
    :attr:`address_components` are.
    """

    transactions: Sequence[str]
    labels: Sequence[int]
    sizes: Sequence[int]
    address_owners: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        count = len(self.transactions)
        if not len(self.labels) == len(self.sizes) == sum(self.sizes) == count:
            raise ValueError(
                f"{len(self.labels)} labels and {len(self.sizes)} sizes "
                f"summing to {sum(self.sizes)} for {count} transactions"
            )

    @classmethod
    def from_groups(cls, groups: Iterable[Sequence[str]]) -> TDGResult:
        """The result of an explicit partition, groups in the given order."""
        transactions: list[str] = []
        labels: list[int] = []
        sizes: list[int] = []
        for group in groups:
            first = len(transactions)
            transactions += group
            labels += [first] * len(group)
            sizes += [len(group)] + [0] * (len(group) - 1)
        return cls(transactions=transactions, labels=labels, sizes=sizes)

    @property
    def num_transactions(self) -> int:
        """Non-coinbase transactions considered."""
        return len(self.transactions)

    @cached_property
    def groups(self) -> tuple[tuple[str, ...], ...]:
        """Transaction-hash groups: by first transaction, members in
        block order."""
        members: dict[int, list[str]] = {}
        for tx_hash, label in zip(self.transactions, self.labels):
            members.setdefault(label, []).append(tx_hash)
        return tuple(map(tuple, members.values()))

    @cached_property
    def address_components(self) -> tuple[tuple[str, ...], ...]:
        """Address components: by first-seen address, members in
        first-seen order.  Addresses share a component exactly when
        their first transactions share a group."""
        labels = self.labels
        components: dict[int, list[str]] = {}
        for address, owner in self.address_owners.items():
            components.setdefault(labels[owner], []).append(address)
        return tuple(map(tuple, components.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TDGResult):
            return NotImplemented
        return (self.groups, self.address_components) == (
            other.groups, other.address_components
        )

    def __hash__(self) -> int:
        return hash((self.groups, self.address_components))

    @property
    def num_conflicted(self) -> int:
        """Transactions sharing a group with at least one other (§III-A2)."""
        return sum(size for size in self.sizes if size > 1)

    @property
    def lcc_size(self) -> int:
        """Size of the largest dependency group, in transactions."""
        return max(self.sizes, default=0)

    def group_sizes(self) -> list[int]:
        """Sizes of all groups, descending — input to the schedulers."""
        return sorted(filter(None, self.sizes), reverse=True)


def _label(parent: list[int], joined: Iterable[int]) -> list[int]:
    """Resolve a forest over transaction positions into group labels.

    In *parent* the smaller root wins, so a parent is never a later
    position and a root is its group's first transaction.  *joined*
    lists, ascending, every position that may have a parent other than
    itself; one pass over it points each at its root, which leaves
    *parent* holding every transaction's label.  Returns the group
    sizes in :attr:`TDGResult.sizes` form.
    """
    sizes = [1] * len(parent)
    for node in joined:
        root = parent[node] = parent[parent[node]]
        if root != node:
            sizes[root] += 1
            sizes[node] = 0
    return sizes


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

    Only the positions an edge touches can leave their own group, so
    only they are labelled.
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
    sizes = _label(parent, sorted({node for edge in edges for node in edge}))
    if obs.enabled():
        obs.counter("tdg.builds", model="utxo").inc()
        obs.counter("tdg.edges_scanned", model="utxo").inc(scanned)
        obs.counter("tdg.edges_in_block", model="utxo").inc(len(edges))
        obs.counter("tdg.components_merged", model="utxo").inc(
            sizes.count(0)
        )
    return TDGResult(transactions=nodes, labels=parent, sizes=sizes)


# -- Account model ------------------------------------------------------------


def account_tdg(executed: Sequence[ExecutedTransaction]) -> TDGResult:
    """Build the TDG of an account-model block from executed transactions.

    Uses each transaction's regular edge plus all internal-transaction
    edges (``ExecutedTransaction.endpoints``); coinbases contribute
    nothing.  A hash repeated in *executed* is one transaction, at its
    first position, with the edges of its last.
    """
    by_hash = {
        item.tx.tx_hash: item for item in executed if not item.tx.is_coinbase
    }
    return _account_forest(
        by_hash, [item.endpoints() for item in by_hash.values()]
    )


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
    """
    return _account_forest(
        tx_edges,
        [[address for pair in pairs for address in pair]
         for pairs in tx_edges.values()],
    )


def _account_forest(
    tx_hashes: Iterable[str], tx_addresses: Sequence[Sequence[str]]
) -> TDGResult:
    """Group transactions (by hash) whose addresses share a component.

    The forest is over transaction positions, not addresses: each
    address remembers the first transaction that referenced it, and
    every later transaction referencing it is united with that one.
    Transactions then share a group exactly when their addresses share
    a component of the address graph — every pair of a transaction
    sits in one component even when its pairs are not connected to
    each other (a call tree always is; degenerate inputs need not be).
    """
    owners: dict[str, int] = {}
    parent = list(range(len(tx_addresses)))
    for position, addresses in enumerate(tx_addresses):
        root = position
        for address in addresses:
            owner = owners.setdefault(address, position)
            if owner == position:
                continue
            while parent[owner] != owner:  # find, path halving
                parent[owner] = owner = parent[parent[owner]]
            if owner < root:
                parent[root] = owner
                root = owner
            elif root < owner:
                parent[owner] = root
    sizes = _label(parent, range(len(parent)))
    if obs.enabled():
        obs.counter("tdg.builds", model="account").inc()
        obs.counter("tdg.edges_scanned", model="account").inc(
            sum(map(len, tx_addresses)) // 2
        )
        obs.counter("tdg.components_merged", model="account").inc(
            len(owners) - len({parent[owner] for owner in owners.values()})
        )
    return TDGResult(
        transactions=list(tx_hashes),
        labels=parent,
        sizes=sizes,
        address_owners=owners,
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
        [accesses[index].tx_hash for index in group]
        for group in conflict_partition(accesses)
    ]
    if obs.enabled():
        obs.counter("tdg.builds", model="storage").inc()
        obs.counter("tdg.locations_tracked", model="storage").inc(
            len(frozenset().union(*(access.writes for access in accesses)))
            + len(frozenset().union(*(access.reads for access in accesses)))
        )
    return TDGResult.from_groups(groups)
