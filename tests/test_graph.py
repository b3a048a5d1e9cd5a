"""Unit tests for the Graph substrate."""

import pytest

from repro.errors import EdgeNotFoundError, GraphError, VertexNotFoundError
from repro.graphs.generators import gnm_random_graph
from repro.graphs.graph import Graph


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.vertices()) == []
        assert list(g.edges()) == []

    def test_from_edges(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.has_edge(1, 2) and g.has_edge(2, 1)

    def test_from_adjacency_each_edge_once(self):
        g = Graph.from_adjacency({1: [2, 3], 2: [], 3: []})
        assert g.num_edges == 2

    def test_from_adjacency_each_edge_twice(self):
        g = Graph.from_adjacency({1: [2], 2: [1]})
        assert g.num_edges == 1

    def test_constructor_takes_edges(self):
        g = Graph([(0, 1)])
        assert g.num_edges == 1


class TestMutation:
    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex(7)
        g.add_vertex(7)
        assert g.num_vertices == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge(1, 2)
        assert 1 in g and 2 in g

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1)

    def test_duplicate_edge_rejected(self):
        g = Graph.from_edges([(1, 2)])
        with pytest.raises(GraphError):
            g.add_edge(2, 1)

    def test_add_edge_if_absent(self):
        g = Graph.from_edges([(1, 2)])
        assert g.add_edge_if_absent(1, 2) is False
        assert g.add_edge_if_absent(1, 1) is False
        assert g.add_edge_if_absent(1, 3) is True
        assert g.num_edges == 2

    def test_remove_edge(self):
        g = Graph.from_edges([(1, 2), (2, 3)])
        g.remove_edge(1, 2)
        assert not g.has_edge(1, 2)
        assert g.num_edges == 1
        assert 1 in g  # endpoint stays

    def test_remove_missing_edge(self):
        g = Graph.from_edges([(1, 2)])
        with pytest.raises(EdgeNotFoundError):
            g.remove_edge(1, 3)

    def test_remove_vertex(self):
        g = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.remove_vertex(2)
        assert 2 not in g
        assert g.num_edges == 1
        assert g.has_edge(1, 3)

    def test_remove_missing_vertex(self):
        g = Graph()
        with pytest.raises(VertexNotFoundError):
            g.remove_vertex(5)


class TestQueries:
    def test_degree_and_neighbors(self, triangle):
        assert triangle.degree(0) == 2
        assert triangle.neighbors(0) == {1, 2}

    def test_degree_missing_vertex(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.degree(99)

    def test_edges_listed_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        normalized = {frozenset(e) for e in edges}
        assert len(normalized) == 3

    def test_len_iter_contains(self, triangle):
        assert len(triangle) == 3
        assert sorted(triangle) == [0, 1, 2]
        assert 1 in triangle and 9 not in triangle

    def test_max_and_average_degree(self, path4):
        assert path4.max_degree() == 2
        assert path4.average_degree() == pytest.approx(1.5)

    def test_degree_stats_empty(self):
        g = Graph()
        assert g.max_degree() == 0
        assert g.average_degree() == 0.0


class TestDerived:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_equality(self, triangle):
        assert triangle == triangle.copy()
        other = triangle.copy()
        other.add_vertex(42)
        assert triangle != other

    def test_subgraph_induced(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (0, 3)])
        sub = g.subgraph([0, 1, 3])
        assert sub.num_vertices == 3
        assert sub.has_edge(0, 1) and sub.has_edge(0, 3)
        assert not sub.has_edge(1, 3)

    def test_subgraph_ignores_unknown(self, triangle):
        sub = triangle.subgraph([0, 1, 99])
        assert sub.num_vertices == 2

    @pytest.mark.parametrize("seed", range(4))
    def test_subgraph_matches_edge_by_edge_build(self, seed):
        g = gnm_random_graph(60, 240, seed)
        chosen = [u for u in sorted(g.vertices()) if (u * 7 + seed) % 3] + [-1, 999]
        expected = Graph()
        for u in chosen:
            if u in g:
                expected.add_vertex(u)
        for u, v in g.edges():
            if u in expected and v in expected:
                expected.add_edge(u, v)
        sub = g.subgraph(chosen)
        assert sub == expected
        assert sub.num_vertices == expected.num_vertices
        assert sub.num_edges == expected.num_edges
        assert sorted(map(sorted, sub.edges())) == sorted(map(sorted, expected.edges()))

    def test_relabeled(self):
        g = Graph.from_edges([(10, 30), (30, 20)])
        relabeled, mapping = g.relabeled()
        assert mapping == {10: 0, 20: 1, 30: 2}
        assert relabeled.has_edge(0, 2) and relabeled.has_edge(1, 2)

    def test_networkx_roundtrip(self, triangle):
        nxg = triangle.to_networkx()
        back = Graph.from_networkx(nxg)
        assert back == triangle

    def test_repr(self, triangle):
        assert repr(triangle) == "Graph(n=3, m=3)"
