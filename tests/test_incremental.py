"""Tests for the in-place local subtree rebuild (Algorithm 3 lines 7-10).

The oracle: after any sequence of `apply_anchor` calls, every structure
in the mutated state equals a fresh `AnchoredState.build` — corenesses,
shell-layer pairs, tree shape, adjacency, and support tables — and the
returned removals match the pure-functional `result_reuse`.
"""

import pytest
from hypothesis import given, settings

from repro.anchors.bounds import compute_upper_bounds
from repro.anchors.followers import find_followers
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import FlatTables
from repro.anchors.reuse import result_reuse
from repro.anchors.state import AnchoredState
from repro.datasets.toy import figure2_graph

from conftest import hub_graph_and_anchors, small_random_graph
from test_kernels import TABLE_FIELDS


def assert_states_equal(actual: AnchoredState, expected: AnchoredState) -> None:
    assert actual.anchors == expected.anchors
    assert actual.decomposition.coreness == expected.decomposition.coreness
    assert actual.decomposition.shell_layer == expected.decomposition.shell_layer
    # tree: same node ids, levels, vertex sets, and parent links
    assert set(actual.tree.nodes) == set(expected.tree.nodes)
    for nid, node in actual.tree.nodes.items():
        other = expected.tree.nodes[nid]
        assert node.k == other.k, nid
        assert node.vertices == other.vertices, nid
        pid = node.parent.node_id if node.parent else None
        other_pid = other.parent.node_id if other.parent else None
        assert pid == other_pid, nid
    assert {r.node_id for r in actual.tree.roots} == {
        r.node_id for r in expected.tree.roots
    }
    # adjacency and support tables
    for u in actual.graph.vertices():
        assert actual.adjacency.tca[u] == expected.adjacency.tca[u], u
        assert actual.adjacency.sn[u] == expected.adjacency.sn[u], u
        assert actual.adjacency.pn[u] == expected.adjacency.pn[u], u
        assert actual.fixed_support[u] == expected.fixed_support[u], u
        # Exact lists: the flat tables copy their order, and the edge
        # delta inserts into them.
        assert actual.same_shell[u] == expected.same_shell[u], u
    # the tree must still satisfy its own invariants
    actual.tree.validate(actual.graph, actual.decomposition)


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_anchor(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        x = sorted(g.vertices())[seed % g.num_vertices]
        apply_anchor(state, x)
        assert_states_equal(state, AnchoredState.build(g, {x}))

    @pytest.mark.parametrize("seed", range(6))
    def test_anchor_sequence(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        anchors = []
        for x in sorted(g.vertices())[:4]:
            apply_anchor(state, x)
            anchors.append(x)
            assert_states_equal(state, AnchoredState.build(g, anchors))

    def test_figure2(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        apply_anchor(state, 2)
        assert_states_equal(state, AnchoredState.build(g, {2}))
        apply_anchor(state, 5)
        assert_states_equal(state, AnchoredState.build(g, {2, 5}))

    def test_already_anchored_rejected(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        apply_anchor(state, 2)
        with pytest.raises(ValueError):
            apply_anchor(state, 2)


@given(hub_graph_and_anchors())
@settings(max_examples=25, deadline=None)
def test_one_delta_keeps_every_consumer_current(case):
    """One anchoring's edge delta patches the dict rows, the flat tables
    and the kept bounds together; after each anchoring all three equal
    a fresh build."""
    graph, anchors = case
    state = AnchoredState.build(graph)
    find_followers(state, min(graph.vertices()), kernel="flat")
    tables = state.kernel_tables
    bounds = compute_upper_bounds(state)
    for step, x in enumerate(anchors, 1):
        apply_anchor(state, x)
        fresh = AnchoredState.build(graph, anchors[:step])
        assert_states_equal(state, fresh)
        assert state.kernel_tables is tables
        scratch = FlatTables(fresh, tables.csr)
        for field in TABLE_FIELDS:
            assert getattr(tables, field) == getattr(scratch, field), field
        assert state.bounds is bounds
        fresh_bounds = compute_upper_bounds(fresh)
        for field in ("own", "parts", "total"):
            assert getattr(bounds, field) == getattr(fresh_bounds, field), field


class TestRemovalsMatchResultReuse:
    @pytest.mark.parametrize("seed", range(8))
    def test_first_anchor(self, seed):
        g = small_random_graph(seed)
        x = sorted(g.vertices())[(seed * 3) % g.num_vertices]
        old = AnchoredState.build(g)
        expected = result_reuse(old, old.with_anchor(x), x)

        state = AnchoredState.build(g)
        removals = apply_anchor(state, x)
        assert removals == expected, (seed, x)

    @pytest.mark.parametrize("seed", range(4))
    def test_second_anchor(self, seed):
        g = small_random_graph(seed)
        first, second = sorted(g.vertices())[:2]
        old = AnchoredState.build(g, {first})
        expected = result_reuse(old, old.with_anchor(second), second)

        state = AnchoredState.build(g)
        apply_anchor(state, first)
        removals = apply_anchor(state, second)
        assert removals == expected, seed

    def test_skippable(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        assert apply_anchor(state, 2, compute_removals=False) == {}
