"""Connected-component algorithms over transaction dependency graphs.

Two interchangeable implementations are provided:

* :func:`connected_components_bfs` — a faithful Python port of the
  JavaScript breadth-first search the paper ships inside its BigQuery
  UDF (paper Fig. 3), preserving its level-by-level frontier expansion;
* :func:`connected_components_union_find` — a weighted-union,
  path-compressing disjoint-set alternative.

Both take the graph as an adjacency mapping and return components as
lists of node lists.  Property-based tests assert they induce the same
partition; the ablation bench compares their cost profiles.  Neither
is on the pipeline's path: :mod:`repro.core.tdg` builds both models'
TDGs over an int-indexed parent array, and the tests hold those TDGs
against this module's BFS and :class:`UnionFind` as references.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, Sequence, TypeVar

Node = TypeVar("Node", bound=Hashable)

Adjacency = Mapping[Node, Iterable[Node]]


def build_adjacency(
    nodes: Iterable[Node],
    edges: Iterable[tuple[Node, Node]],
) -> dict[Node, set[Node]]:
    """Build an undirected adjacency map from *nodes* and *edges*.

    Edge endpoints absent from *nodes* are added implicitly, matching the
    UDF behaviour where the node universe is derived from the edge
    arrays.  Self-loops are kept in the node set but add no neighbours.
    """
    adjacency: dict[Node, set[Node]] = {node: set() for node in nodes}
    for a, b in edges:
        adjacency.setdefault(a, set())
        adjacency.setdefault(b, set())
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def connected_components_bfs(
    adjacency: Adjacency,
) -> list[list[Node]]:
    """Connected components via the paper's BFS (Fig. 3).

    The traversal mirrors the published UDF: iterate nodes in order, and
    for each unvisited node grow its component one *frontier level* at a
    time (``neighbors`` / ``newNeighbors`` sets in the original).  The
    original enumerates ``txs`` (with duplicates possible from the edge
    arrays); here the adjacency keys play that role, deduplicated.

    Returns components as lists; each component's first element is the
    node that seeded its traversal.
    """
    visited: set[Node] = set()
    components: list[list[Node]] = []
    for node in adjacency:
        if node in visited:
            continue
        component: list[Node] = [node]
        visited.add(node)
        frontier: set[Node] = set()
        for neighbour in adjacency[node]:
            if neighbour not in visited:
                frontier.add(neighbour)
        while frontier:
            next_frontier: set[Node] = set()
            for member in frontier:
                component.append(member)
                visited.add(member)
            for member in frontier:
                for neighbour in adjacency[member]:
                    if neighbour not in visited:
                        next_frontier.add(neighbour)
            frontier = next_frontier
        components.append(component)
    return components


class UnionFind:
    """Disjoint-set forest with union by size and path compression."""

    def __init__(self) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}

    def add(self, node: Hashable) -> None:
        """Register *node* as its own singleton set if unseen."""
        if node not in self._parent:
            self._parent[node] = node
            self._size[node] = 1

    def find(self, node: Hashable) -> Hashable:
        """Return the canonical representative of *node*'s set."""
        if node not in self._parent:
            raise KeyError(f"unknown node {node!r}")
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: Hashable, b: Hashable) -> None:
        """Merge the sets containing *a* and *b* (registering both)."""
        self.add(a)
        self.add(b)
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]

    def groups(self) -> list[list[Hashable]]:
        """All disjoint sets, each as a list of members."""
        buckets: dict[Hashable, list[Hashable]] = {}
        for node in self._parent:
            buckets.setdefault(self.find(node), []).append(node)
        return list(buckets.values())

    def __len__(self) -> int:
        return len(self._parent)


def connected_components_union_find(
    adjacency: Adjacency,
) -> list[list[Node]]:
    """Connected components via union-find (the ablation alternative)."""
    forest = UnionFind()
    for node, neighbours in adjacency.items():
        forest.add(node)
        for neighbour in neighbours:
            forest.union(node, neighbour)
    return forest.groups()  # type: ignore[return-value]


def components_as_partition(
    components: Sequence[Sequence[Node]],
) -> frozenset[frozenset[Node]]:
    """Canonical form of a component list for equality comparison."""
    return frozenset(frozenset(component) for component in components)
