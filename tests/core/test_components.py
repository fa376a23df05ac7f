"""Tests for connected-component algorithms (BFS of paper Fig. 3 + DSU)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import (
    UnionFind,
    build_adjacency,
    components_as_partition,
    connected_components_bfs,
    connected_components_union_find,
)


def _graph(nodes, edges):
    return build_adjacency(nodes, edges)


class TestBuildAdjacency:
    def test_isolated_nodes_kept(self):
        adjacency = _graph(["a", "b"], [])
        assert adjacency == {"a": set(), "b": set()}

    def test_edges_are_undirected(self):
        adjacency = _graph(["a", "b"], [("a", "b")])
        assert "b" in adjacency["a"]
        assert "a" in adjacency["b"]

    def test_edge_endpoints_added_implicitly(self):
        adjacency = _graph([], [("x", "y")])
        assert set(adjacency) == {"x", "y"}

    def test_self_loops_add_no_neighbours(self):
        adjacency = _graph(["a"], [("a", "a")])
        assert adjacency["a"] == set()


class TestBFS:
    def test_chain_is_one_component(self):
        edges = [("a", "b"), ("b", "c"), ("c", "d")]
        components = connected_components_bfs(_graph("abcd", edges))
        assert [len(component) for component in components] == [4]

    def test_disjoint_components(self):
        edges = [("a", "b"), ("c", "d")]
        components = connected_components_bfs(_graph("abcde", edges))
        partition = components_as_partition(components)
        assert frozenset({"a", "b"}) in partition
        assert frozenset({"c", "d"}) in partition
        assert frozenset({"e"}) in partition

    def test_singleton_count(self):
        components = connected_components_bfs(
            _graph("abcd", [("a", "b")])
        )
        assert sum(len(component) == 1 for component in components) == 2

    def test_empty_graph(self):
        assert connected_components_bfs({}) == []

    def test_star_topology(self):
        edges = [("hub", f"leaf{i}") for i in range(10)]
        components = connected_components_bfs(_graph([], edges))
        assert len(components) == 1
        assert len(components[0]) == 11

    def test_components_cover_all_nodes_exactly_once(self):
        edges = [("a", "b"), ("b", "c"), ("d", "e")]
        components = connected_components_bfs(_graph("abcdef", edges))
        flat = [node for component in components for node in component]
        assert sorted(flat) == list("abcdef")


class TestUnionFind:
    def test_union_and_find(self):
        forest = UnionFind()
        forest.union("a", "b")
        forest.union("b", "c")
        assert forest.find("a") == forest.find("c")
        assert forest.groups() == [["a", "b", "c"]]

    def test_disjoint_roots(self):
        forest = UnionFind()
        forest.union("a", "b")
        forest.add("z")
        assert forest.find("a") != forest.find("z")

    def test_find_unknown_raises(self):
        with pytest.raises(KeyError):
            UnionFind().find("ghost")

    def test_groups(self):
        forest = UnionFind()
        forest.union("a", "b")
        forest.add("c")
        groups = {frozenset(group) for group in forest.groups()}
        assert groups == {frozenset({"a", "b"}), frozenset({"c"})}

    def test_idempotent_union(self):
        forest = UnionFind()
        forest.union("a", "b")
        forest.union("a", "b")
        assert forest.groups() == [["a", "b"]]
        assert len(forest) == 2


# -- property-based equivalence: paper BFS == union-find ---------------------

node_ids = st.integers(min_value=0, max_value=30)
edge_lists = st.lists(st.tuples(node_ids, node_ids), max_size=60)


@settings(max_examples=200)
@given(edges=edge_lists, extra_nodes=st.lists(node_ids, max_size=10))
def test_bfs_equals_union_find(edges, extra_nodes):
    """The paper's BFS and union-find induce identical partitions."""
    adjacency = build_adjacency(extra_nodes, edges)
    bfs = components_as_partition(connected_components_bfs(adjacency))
    dsu = components_as_partition(connected_components_union_find(adjacency))
    assert bfs == dsu


@settings(max_examples=100)
@given(edges=edge_lists)
def test_component_count_plus_edges_bounds_nodes(edges):
    """Each edge reduces the component count by at most one."""
    adjacency = build_adjacency([], edges)
    components = connected_components_bfs(adjacency)
    assert len(components) >= len(adjacency) - len(edges)
