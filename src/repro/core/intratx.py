"""Intra-transaction concurrency — the paper's third §VII source.

The paper's conclusion lists "intra-transaction" concurrency as another
unexplored source: a single transaction's internal call tree may itself
contain parallelism (sibling subtrees that touch disjoint state can
execute concurrently).

This module reconstructs the call tree from a receipt's internal
transactions (using their depths and order, the same information geth
traces carry), determines which sibling subtrees are independent (no
shared touched address), and computes:

* the tree's *critical path* (depth-wise cost that must be sequential);
* total work vs. critical path = the transaction's internal speed-up
  potential, analogous to 1/l at block level.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.account.receipts import ExecutedTransaction


@dataclass
class CallNode:
    """A node of a transaction's call tree."""

    sender: str
    receiver: str
    cost: float = 1.0
    children: list["CallNode"] = field(default_factory=list)

    def subtree_addresses(self) -> set[str]:
        """Addresses whose state this subtree touches.

        Receivers only: an internal call's sender is its parent's
        receiver, already accounted for one level up — including it
        here would spuriously serialise every sibling fan-out.
        """
        touched = {self.receiver}
        for child in self.children:
            touched |= child.subtree_addresses()
        return touched

    def total_work(self) -> float:
        return self.cost + sum(child.total_work() for child in self.children)

    def critical_path(self) -> float:
        """Minimum completion time with unlimited cores.

        Children that touch overlapping address sets must serialise;
        independent children run in parallel.  Greedy grouping: scan
        children in call order, chaining a child onto the earliest
        conflicting predecessor group (conservative but safe).
        """
        if not self.children:
            return self.cost
        # Partition children into conflict groups (union by overlap).
        groups: list[tuple[set[str], float]] = []
        for child in self.children:
            addresses = child.subtree_addresses()
            path = child.critical_path()
            merged = False
            for index, (group_addresses, group_path) in enumerate(groups):
                if group_addresses & addresses:
                    groups[index] = (
                        group_addresses | addresses,
                        group_path + path,  # serialised within the group
                    )
                    merged = True
                    break
            if not merged:
                groups.append((addresses, path))
        return self.cost + max(path for _addresses, path in groups)


def build_call_tree(item: ExecutedTransaction) -> CallNode:
    """Reconstruct the call tree of one executed transaction.

    The root is the top-level message call; internal transactions
    attach under the most recent node one depth level up, which is
    exactly how geth's depth-annotated flat traces nest.
    """
    root = CallNode(sender=item.tx.sender, receiver=item.tx.receiver)
    # Stack of the latest node at each depth; depth 1 = root.
    latest: dict[int, CallNode] = {1: root}
    for internal in item.receipt.internal_transactions:
        node = CallNode(sender=internal.sender, receiver=internal.receiver)
        parent = latest.get(internal.depth - 1, root)
        parent.children.append(node)
        latest[internal.depth] = node
    return root


@dataclass(frozen=True)
class IntraTxConcurrency:
    """Concurrency accounting for one transaction's call tree."""

    tx_hash: str
    total_work: float
    critical_path: float

    @property
    def speedup_potential(self) -> float:
        """Total work over critical path (>= 1)."""
        if self.critical_path == 0:
            return 1.0
        return self.total_work / self.critical_path


def analyze_intra_tx(item: ExecutedTransaction) -> IntraTxConcurrency:
    """Measure one transaction's internal concurrency."""
    tree = build_call_tree(item)
    return IntraTxConcurrency(
        tx_hash=item.tx_hash,
        total_work=tree.total_work(),
        critical_path=tree.critical_path(),
    )


def block_intra_tx_potential(
    executed: list[ExecutedTransaction],
) -> float:
    """Work-weighted mean intra-tx speed-up potential of a block.

    1.0 means no internal parallelism anywhere; values above 1 bound
    the extra factor available *inside* transactions, on top of the
    paper's inter-transaction speed-ups.
    """
    total_work = 0.0
    weighted = 0.0
    for item in executed:
        if item.is_coinbase:
            continue
        result = analyze_intra_tx(item)
        total_work += result.total_work
        weighted += result.speedup_potential * result.total_work
    if total_work == 0:
        return 1.0
    return weighted / total_work
