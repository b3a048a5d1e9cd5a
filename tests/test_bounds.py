"""Tests for the follower-count upper bound (Equations 1-3, Theorem 4.17)."""

import sys

import pytest
from hypothesis import given, settings

from repro.anchors.bounds import compute_upper_bounds, refined_total
from repro.anchors.followers import find_followers
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.state import AnchoredState
from repro.datasets import registry
from repro.datasets.toy import figure2_graph, figure5b_graph
from repro.errors import VerificationError
from repro.graphs.graph import Graph

from conftest import hub_graph_and_anchors, small_random_graph


class TestDominance:
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_dominates_follower_count(self, seed):
        """Theorem 4.17: UB_sigma(x) >= |F(x)| for every vertex."""
        g = small_random_graph(seed)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for x in g.vertices():
            report = find_followers(state, x)
            assert bounds.total[x] >= report.total, (seed, x)
            # per-node dominance too
            for nid, count in report.counts.items():
                assert bounds.parts[x].get(nid, 0) >= count, (seed, x, nid)

    @pytest.mark.parametrize("seed", range(4))
    def test_bound_dominates_with_anchors(self, seed):
        g = small_random_graph(seed)
        state = AnchoredState.build(g, {1})
        bounds = compute_upper_bounds(state)
        for x in state.candidates():
            assert bounds.total[x] >= find_followers(state, x).total


class TestHandComputed:
    def test_chain_graph(self):
        """A 3-chain in one shell: UB counts each hop's subtree."""
        # path 0-1-2-3 hanging off a triangle keeps one shell with layers
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        # vertices 0,1,2 are the 1-shell chain, layers 1,2,3
        pairs = state.decomposition.shell_layer
        assert pairs[0] < pairs[1] < pairs[2]
        # UB for 0: own-node chain 1 -> 2 (+ their cross bounds)
        assert bounds.own[2] >= 0
        assert bounds.own[1] == bounds.own[2] + 1
        assert bounds.own[0] == bounds.own[1] + 1

    def test_figure5b_anchor_u1(self):
        g = figure5b_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        # u1's only route is u2 -> {u5, u6}; each of those has no onward
        # same-shell edge, but u5/u6 have cross-node parts not counted in
        # u1's bound (Eq 2 uses the neighbor's own-node bound only).
        assert bounds.own[5] == 0 and bounds.own[6] == 0
        assert bounds.own[2] == 2  # u5 and u6
        assert bounds.total[1] == 3  # (own[2] + 1) through the cross edge

    def test_figure2_anchor_u2(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        assert bounds.total[2] >= 4  # true follower count is 4

    def test_anchors_excluded(self):
        g = figure2_graph()
        state = AnchoredState.build(g, {3})
        bounds = compute_upper_bounds(state)
        assert 3 not in bounds.total


class TestRefinement:
    def test_refined_never_exceeds_plain(self):
        g = small_random_graph(2)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for x in g.vertices():
            report = find_followers(state, x)
            refined = refined_total(x, bounds, dict(report.counts))
            assert refined <= bounds.total[x]
            assert refined >= report.total

    def test_refined_with_empty_cache_is_plain(self):
        g = small_random_graph(2)
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        for x in g.vertices():
            assert refined_total(x, bounds, {}) == bounds.total[x]

    def test_refined_exact_when_fully_cached(self):
        g = figure2_graph()
        state = AnchoredState.build(g)
        bounds = compute_upper_bounds(state)
        report = find_followers(state, 2)
        # all parts replaced by exact counts -> equals |F| when every
        # part id appears in the report (zero-count nodes included)
        counts = {nid: report.counts.get(nid, 0) for nid in bounds.parts[2]}
        assert refined_total(2, bounds, counts) == report.total


# ----------------------------------------------------------------------
# Bounds kept across anchorings: after each apply_anchor the state's
# bounds must equal a from-scratch build field by field. The hub makes
# an anchoring move most of the graph's rows, so a refresh that misses
# a propagated own-node change or a neighbor of one shows up.


@given(hub_graph_and_anchors())
@settings(max_examples=40, deadline=None)
def test_kept_bounds_match_fresh_build(case):
    graph, anchors = case
    state = AnchoredState.build(graph)
    bounds = compute_upper_bounds(state)
    for step, x in enumerate(anchors, 1):
        apply_anchor(state, x)
        assert compute_upper_bounds(state) is bounds
        fresh = compute_upper_bounds(AnchoredState.build(graph, anchors[:step]))
        for field in ("own", "parts", "total"):
            assert getattr(bounds, field) == getattr(fresh, field), (
                field,
                anchors[:step],
            )


def test_states_without_bounds_build_none():
    """Anchoring a state nobody asked for bounds keeps it bound-free."""
    g = small_random_graph(3)
    state = AnchoredState.build(g)
    apply_anchor(state, next(iter(sorted(g.vertices()))))
    assert state.bounds is None


@pytest.mark.parametrize("dataset", ["brightkite", "arxiv"])
@pytest.mark.parametrize("tie_break", ["ub", "id"])
def test_gac_kept_ranking_verified(dataset, tie_break):
    """Under verify=True every round checks the kept bounds and refined
    values against a fresh computation (``ub`` ties read them too)."""
    result = gac(registry.load(dataset), 6, tie_break=tie_break, verify=True)
    assert len(result.anchors) == 6


def test_verify_catches_stale_bounds(monkeypatch):
    """The oracle fires when the bounds stop being refreshed."""
    incremental = sys.modules["repro.anchors.incremental"]
    monkeypatch.setattr(incremental, "refresh_upper_bounds", lambda *args: None)
    with pytest.raises(VerificationError, match="bounds-|refined-"):
        gac(registry.load("arxiv"), 3, tie_break="id", verify=True)
