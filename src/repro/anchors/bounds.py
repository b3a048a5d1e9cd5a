"""Upper bound of the follower count (Section 4.5, Equations 1-3).

For a candidate anchor ``x`` the bound ``UB_sigma(x)`` dominates
``|F(x)|`` (Theorem 4.17): every vertex reachable from ``x`` by an
upstair path is counted at least once.

The bounds are a derived structure of :class:`AnchoredState`, like its
kernel tables. The first :func:`compute_upper_bounds` call builds them
for every non-anchor vertex in one O(m) pass
(:func:`build_upper_bounds`), processing vertices in reverse order of
their shell-layer pairs — a topological order of the upstair-edge DAG —
so the own-node bound of every vertex is ready before anyone sums over
it. From then on :func:`repro.anchors.incremental.apply_anchor` keeps
them current with :func:`refresh_upper_bounds`, fed by the same edge
delta as the adjacency rows: full rows for the changed vertices, one
patched entry per changed edge elsewhere. The own-node bounds (Eq 1)
are recomputed from the changed vertices and the rows whose
higher-layer same-shell set moved, and from whatever their changes
propagate to down the upstair DAG; the per-node parts (Eq 2) only for
the node entries a changed edge or a moved own-node bound touched,
and then the totals (Eq 3) of those rows. The from-scratch build stays
as the oracle (:func:`repro.verify.invariants.verify_upper_bounds`).

The GAC algorithm scans candidates in decreasing bound order and skips
any candidate whose bound cannot beat the best gain found so far; after
each anchoring, cached exact counts ``F[u][id]`` replace the per-node
bound parts where available ("Upper Bound Refining").
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro import obs as _obs
from repro.anchors.state import AnchoredState, Changes, Edges
from repro.core.tree import NodeId
from repro.graphs.graph import Vertex
from repro.lint.markers import pure


@dataclass
class UpperBounds:
    """Per-candidate follower-count bounds.

    Attributes:
        own: ``UB_{i_u}(u)`` — bound on followers inside u's own node (Eq 1).
        parts: per node id in ``sn(u)``, the bound on ``|F[u][id]|``
            (``own[u]`` for the own node, Eq 2 for deeper nodes).
        total: ``UB_sigma(u)`` (Eq 3) — the sum of ``parts[u]``.
        refreshed: the vertices whose ``parts``/``total`` the anchorings
            since the last :meth:`take_refreshed` recomputed. Every other
            candidate kept its parts.
    """

    own: dict[Vertex, int] = field(default_factory=dict)
    parts: dict[Vertex, dict[NodeId, int]] = field(default_factory=dict)
    total: dict[Vertex, int] = field(default_factory=dict)
    refreshed: set[Vertex] = field(default_factory=set)

    def take_refreshed(self) -> set[Vertex]:
        """The refreshed vertices so far; starts a new record."""
        taken, self.refreshed = self.refreshed, set()
        return taken


@pure
def compute_upper_bounds(state: AnchoredState) -> UpperBounds:
    """Equations 1-3 for every non-anchor vertex of the current state.

    Built on the first call and cached on ``state``; later calls return
    the same object, which ``apply_anchor`` keeps current.
    """
    bounds = state.bounds
    if bounds is None:
        bounds = state.bounds = build_upper_bounds(state)
    return bounds


@pure
def build_upper_bounds(state: AnchoredState) -> UpperBounds:
    """Equations 1-3 from scratch (the first build and the oracle)."""
    with _obs.span("bounds.build"):
        anchors = state.anchors
        pairs = state.decomposition.shell_layer
        bounds = UpperBounds()
        # Reverse topological order of the upstair DAG: descending (k, i).
        # Ties (equal pairs) carry no upstair edges, so any tie order works.
        candidates = state.candidates()
        for u in sorted(candidates, key=pairs.__getitem__, reverse=True):
            bounds.own[u] = _own_bound(state, bounds.own, u)
        for u in candidates:
            _fill_parts(state, bounds, u)
    return bounds


@pure
def refresh_upper_bounds(  # lint: obs-ok timed by apply_anchor's bounds_refresh span
    state: AnchoredState, bounds: UpperBounds, changed: Changes, edges: Edges
) -> None:
    """Bring ``state``'s kept ``bounds`` up to date after an anchoring.

    ``changed`` maps every vertex whose pair, node id or anchor flag the
    anchoring moved to its old values, and ``edges`` lists the edges
    from those vertices to the rest (the delta ``apply_anchor`` hands
    every derived structure).

    Eq 1 of a vertex reads its pair and the own-node bounds of its
    same-shell, higher-layer neighbors. It is recomputed in descending
    ``(k, i)`` order for the changed vertices and for each row whose
    set of such neighbors a changed edge moved; a vertex whose value
    moved queues its same-shell, lower-layer neighbors.

    Eqs 2-3 are recomputed in full for the changed vertices. Any other
    row ``v`` is patched by deltas: its entry for a node other than its
    own sums ``1 + own[w]`` over its neighbors ``w`` in that node, and
    those are exactly its non-anchor neighbors of higher coreness (an
    equal-coreness neighbor shares ``v``'s node). So a changed edge
    moves one term, a moved own-node bound moves its owner's own entry
    and one term in each lower-coreness neighbor's row, and each total
    moves with its entries.

    Every non-anchor in or next to ``changed`` or next to a moved
    own-node bound is recorded as refreshed.
    """
    graph = state.graph
    anchors = state.anchors
    pairs = state.decomposition.shell_layer
    own = bounds.own
    parts = bounds.parts
    total = bounds.total
    refreshed = bounds.refreshed
    full: list[Vertex] = []
    now: Changes = {}
    was_own: dict[Vertex, int] = {}
    for u, prior in changed.items():
        now[u] = state.snapshot(u)
        if not prior[0]:
            was_own[u] = own[u]
        if u in anchors:
            own.pop(u, None)
            parts.pop(u, None)
            total.pop(u, None)
        else:
            full.append(u)

    # Seeds besides the changed rows: each row that gained or lost a
    # same-shell, higher-layer neighbor.
    queued = set(full)
    rows: Edges = []
    for u, v in edges:
        if v in anchors:
            continue
        rows.append((u, v))
        kv, iv = pairs[v]
        was_anchor, old_k, old_i, _ = changed[u]
        anchored, k, i, _ = now[u]
        was_up = not was_anchor and old_k == kv and old_i > iv
        if was_up != (not anchored and k == kv and i > iv):
            queued.add(v)
    # A pushed vertex always has a smaller pair than the popped one, so
    # every queued vertex pops once, after all its upper neighbors.
    # Ties are equal pairs, which share no upstair edge: any order works.
    ranked = enumerate(queued)  # lint: order-ok tie order is free
    heap = [(-pairs[v][0], -pairs[v][1], seq, v) for seq, v in ranked]
    heapq.heapify(heap)
    seq = len(heap)
    own_changed: dict[Vertex, int] = {}  # vertex -> its old own-node bound
    while heap:
        u = heapq.heappop(heap)[3]
        value = _own_bound(state, own, u)
        if own[u] == value:
            continue
        own_changed[u] = own[u]
        own[u] = value
        ku, iu = pairs[u]
        for v in state.same_shell[u]:
            iv = pairs[v][1]
            if iv < iu and v not in queued:
                queued.add(v)
                heapq.heappush(heap, (-ku, -iv, seq, v))
                seq += 1

    for u in full:
        _fill_parts(state, bounds, u)
    # Per row, per node, the change of its entry.
    shift: dict[Vertex, dict[NodeId, int]] = {}
    for u, v in rows:
        kv = pairs[v][0]
        was_anchor, old_k, _, old_nid = changed[u]
        anchored, k, _, nid = now[u]
        row = shift.setdefault(v, {})
        if not was_anchor and old_k > kv:
            row[old_nid] = row.get(old_nid, 0) - 1 - was_own[u]
        if not anchored and k > kv:
            row[nid] = row.get(nid, 0) + 1 + own[u]
    for w, old in own_changed.items():
        refreshed.update(graph.neighbors(w))
        if w in changed:
            continue  # its terms moved with its edges above
        d = own[w] - old
        nid = state.node_id(w)
        parts[w][nid] = own[w]
        total[w] += d
        tca_w = state.tca(w)
        for lower in state.pn(w):  # lint: order-ok per-row sums are order-free
            for v in tca_w[lower]:
                if v not in changed:
                    row = shift.setdefault(v, {})
                    row[nid] = row.get(nid, 0) + d
    for v, row in shift.items():
        entries = parts[v]
        moved = 0
        for nid, d in row.items():
            if d:
                value = entries.get(nid, 0) + d
                if value:
                    entries[nid] = value
                else:
                    del entries[nid]  # the node left v's neighborhood
                moved += d
        total[v] += moved
        refreshed.add(v)
    refreshed.update(full)
    refreshed.difference_update(anchors)


def _own_bound(state: AnchoredState, own: dict[Vertex, int], u: Vertex) -> int:
    """Eq 1: ``own[v] + 1`` summed over u's same-shell upper neighbors.

    ``same_shell[u]`` lists exactly the non-anchor neighbors of u's
    coreness, so the upper ones are those with a higher layer.
    """
    pairs = state.decomposition.shell_layer
    iu = pairs[u][1]
    acc = 0
    for v in state.same_shell[u]:
        if pairs[v][1] > iu:
            acc += own[v] + 1
    return acc


def _fill_parts(state: AnchoredState, bounds: UpperBounds, u: Vertex) -> None:
    """Eqs 2-3 for ``u``: per-node parts over ``sn(u)`` and their sum.

    ``tca`` buckets hold no anchors, so every member has an ``own`` entry.
    """
    own = bounds.own
    i_u = state.tree.node_of[u].node_id
    parts: dict[NodeId, int] = {i_u: own[u]}
    tca_u = state.tca(u)
    for nid in state.sn(u):  # lint: order-ok parts feed an order-free sum
        if nid == i_u:
            continue
        bucket = tca_u[nid]
        parts[nid] = len(bucket) + sum(map(own.__getitem__, bucket))
    bounds.parts[u] = parts
    bounds.total[u] = sum(parts.values())


@pure
def refined_total(  # lint: obs-ok pure arithmetic over precomputed bounds
    u: Vertex,
    bounds: UpperBounds,
    cached_counts: dict[NodeId, int],
) -> int:
    """``UB_sigma(u)`` with exact cached counts substituted where valid.

    A cached ``|F[u][id]|`` is both exact and <= the bound part, so the
    refined total is a tighter valid bound (Section 4.5, "Upper Bound
    Refining"). ``cached_counts`` must already be validated against the
    current state (see ``FollowerCache.valid_counts``).
    """
    parts = bounds.parts[u]
    return sum(cached_counts.get(nid, part) for nid, part in parts.items())
