"""In-place anchoring: the paper's local subtree rebuild (Algorithm 3).

`AnchoredState.with_anchor` rebuilds every structure globally — simple,
but O(m) per greedy iteration regardless of how little changed. The
paper instead re-decomposes only ``CC(T[x])`` — the core component of
the anchored vertex — and splices the rebuilt subtree into the tree
(Algorithm 3 lines 7-10). This module implements that fast path.

Locality rests on two facts:

* a k-core component's decomposition (corenesses *and* shell layers) is
  independent of the rest of the graph, so re-peeling the component's
  induced subgraph — plus the already-anchored vertices adjacent to it,
  which supply permanent support — reproduces the global values;
* anchors live in no tree node (see ``CoreComponentTree.build``), so an
  anchoring never forces tree surgery outside the rebuilt subtree.

After the splice the derived rows are kept current by edge deltas.
``changed`` is ``x``, the re-peeled vertices whose shell-layer pair or
node id moved, and the boundary anchors whose effective coreness moved.
A vertex's rows depend only on its own values and its neighbors'
anchor flag, node id, coreness and layer, so the rows of ``changed`` are
rebuilt in full, and every other row gets one patched entry per
changed edge: the entry for its changed neighbor. That costs
O(Σ deg(changed)) per anchoring. The same delta — each changed
vertex's old values and the changed edges — patches the flat kernel
tables (:meth:`~repro.anchors.kernels.flat_backend.FlatTables.apply_update`)
and, when the state has them, the Section 4.5 upper bounds
(:func:`repro.anchors.bounds.refresh_upper_bounds`).

`apply_anchor` mutates the state. Its correctness oracle — structural
equality with a fresh ``AnchoredState.build`` — runs in the test suite
over random anchor sequences. Under tracing, the ``incremental.*``
spans split a round's update into the re-peel and splice, the
adjacency refresh, the kernel-table refresh, the bounds refresh and the
cache invalidation.
"""

from __future__ import annotations

from bisect import insort

from repro import obs as _obs
from repro.anchors.bounds import refresh_upper_bounds
from repro.anchors.state import AnchoredState, Changes, Edges
from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import (
    CoreComponentTree,
    NodeId,
    TreeAdjacency,
    TreeNode,
    _sort_key,
)
from repro.graphs.graph import Vertex


def apply_anchor(
    state: AnchoredState, x: Vertex, compute_removals: bool = True
) -> dict[Vertex, set[NodeId]]:
    """Anchor ``x`` in place; returns Algorithm 3's cache removals.

    Args:
        state: the state to mutate (``x`` must not already be anchored).
        x: the vertex to anchor.
        compute_removals: skip the invalidation bookkeeping when the
            caller runs without a follower cache (GAC-U-R).

    Returns:
        ``removals[u]`` — old node ids whose cached ``F[u][id]`` counts
        must be dropped (empty when ``compute_removals`` is false).
    """
    if x in state.anchors:
        raise ValueError(f"{x!r} is already anchored")
    graph = state.graph
    tree = state.tree
    with _obs.span("incremental.apply_anchor", anchor=x):
        old_node = tree.node_of[x]
        component = old_node.subtree_vertices()

        # ---- Algorithm 3 lines 1-6: invalidation from the old structures.
        removals: dict[Vertex, set[NodeId]] = {}
        affected: set[Vertex] = set()
        if compute_removals:
            with _obs.span("incremental.invalidate", phase="old"):
                for nid in state.sn(x):  # lint: order-ok set union is commutative
                    affected |= tree.nodes[nid].vertices
                _invalidate(state.adjacency, tree, affected, removals)
        old_ids = {v: tree.node_of[v].node_id for v in component}

        # ---- Lines 7-10: re-decompose the component locally and splice.
        with _obs.span("incremental.repeel", component=len(component)):
            changed = _repeel_and_splice(state, x, old_node, component, old_ids)

        # ---- Refresh the derived rows the anchoring actually changed. A
        # vertex's row depends only on its own coreness and on its
        # neighbors' anchor flag, node id and coreness: the rows of
        # ``changed`` are stale in full, any other row only in its
        # entries for changed neighbors — one per edge listed here.
        edges: Edges = [  # lint: order-ok every consumer patches order-free
            (u, v)
            for u in changed
            for v in graph.neighbors(u)
            if v not in changed
        ]
        size = {"changed": len(changed), "edges": len(edges)}
        with _obs.span("incremental.adjacency_refresh", **size):
            _refresh_adjacency(state, changed, edges)
        # Keep the flat kernel tables (if this state has been explored by
        # the flat follower backend) in sync with the same delta.
        if state.kernel_tables is not None:
            with _obs.span("incremental.table_refresh", **size):
                state.kernel_tables.apply_update(state, changed, edges)
        # Likewise the Section 4.5 upper bounds, once something built them.
        if state.bounds is not None:
            with _obs.span("incremental.bounds_refresh", **size):
                refresh_upper_bounds(state, state.bounds, changed, edges)

        # ---- Lines 12-16: invalidation from the new structures.
        if compute_removals:
            with _obs.span("incremental.invalidate", phase="new"):
                _invalidate_widened(state, affected, old_ids, removals)
    return removals


def _repeel_and_splice(
    state: AnchoredState,
    x: Vertex,
    old_node: TreeNode,
    component: set[Vertex],
    old_ids: dict[Vertex, NodeId],
) -> Changes:
    """Re-peel ``CC(T[x])`` with ``x`` anchored and splice its subtree.

    Returns the vertices the anchoring changed, each with its values
    from before the anchoring: ``x``, every component vertex whose
    shell-layer pair or tree node id moved, and every boundary anchor
    whose effective coreness moved.
    """
    graph = state.graph
    tree = state.tree
    # Anchors adjacent to the component supply permanent support and act
    # as connectors; anchor-anchor chains extend that connectivity, so
    # the induced subgraph takes the closure of adjacent anchors.
    new_anchors = state.anchors | {x}
    boundary_anchors = {
        a
        for v in component
        for a in graph.neighbors(v)
        if a in state.anchors
    }
    closure = set(boundary_anchors)
    frontier = list(closure)
    while frontier:
        a = frontier.pop()
        for b in graph.neighbors(a):  # lint: order-ok closure BFS builds a set
            if b in state.anchors and b not in closure:
                closure.add(b)
                frontier.append(b)
    sub = graph.subgraph(component | closure)
    local = peel_decomposition(sub, closure | {x})
    coreness = state.decomposition.coreness
    shell_layer = state.decomposition.shell_layer
    changed: Changes = {x: (False, coreness[x], shell_layer[x][1], old_ids[x])}
    for v in component:  # lint: order-ok per-vertex writes are independent
        if v == x:
            continue
        pair = local.shell_layer[v]
        old = shell_layer[v]
        if pair != old:
            changed[v] = (False, old[0], old[1], old_ids[v])
            coreness[v] = local.coreness[v]
            shell_layer[v] = pair
    # Anchor effective corenesses are defined over *global* non-anchor
    # neighborhoods; refresh every anchor whose neighborhood changed.
    state.anchors = new_anchors
    for a in sorted(boundary_anchors | {x}, key=_sort_key):
        eff = max(
            (
                coreness[v]
                for v in graph.neighbors(a)
                if v not in new_anchors
            ),
            default=0,
        )
        if coreness[a] != eff and a not in changed:
            changed[a] = (True, coreness[a], 0, None)
        coreness[a] = eff
        shell_layer[a] = (eff, 0)
    state.decomposition = CoreDecomposition(
        coreness=coreness,
        shell_layer=shell_layer,
        order=[],  # the global deletion order is not maintained in place
        anchors=new_anchors,
    )

    subtree = CoreComponentTree.build(sub, local)
    old_parent = old_node.parent
    for node in _all_subtree_nodes(old_node):
        tree.nodes.pop(node.node_id, None)
    tree.node_of.pop(x, None)
    # Anchors connect at every level, so the component stays one piece
    # (x itself now connects whatever it used to): the rebuilt subtree
    # replaces the old one under the same parent.
    if old_parent is None:
        tree.roots = [r for r in tree.roots if r is not old_node]
        for root in subtree.roots:
            root.parent = None
            tree.roots.append(root)
        tree.roots.sort(key=lambda nd: _sort_key(nd.node_id))
    else:
        old_parent.children = [c for c in old_parent.children if c is not old_node]
        for root in subtree.roots:
            root.parent = old_parent
            old_parent.children.append(root)
        old_parent.children.sort(key=lambda c: _sort_key(c.node_id))
    for nid, node in subtree.nodes.items():
        tree.nodes[nid] = node
    for v, node in subtree.node_of.items():
        tree.node_of[v] = node
        if node.node_id != old_ids[v] and v not in changed:
            changed[v] = (False, coreness[v], shell_layer[v][1], old_ids[v])
    return changed


def _invalidate_widened(
    state: AnchoredState,
    affected: set[Vertex],
    old_ids: dict[Vertex, NodeId],
    removals: dict[Vertex, set[NodeId]],
) -> None:
    """Lines 12-16: vertices newly sharing a node with an affected one
    lose their old node id, for themselves and their lower neighbors."""
    node_of = state.tree.node_of
    widened: set[Vertex] = set()
    for v in affected:  # lint: order-ok set union is commutative
        if v in state.anchors:
            continue
        widened |= node_of[v].vertices
    # removals accumulate into per-vertex sets; scan order is free
    for v in widened - affected:  # lint: order-ok commutative set inserts
        vid = old_ids.get(v)
        if vid is None:
            continue
        removals.setdefault(v, set()).add(vid)
        tca_v = state.adjacency.tca[v]
        for nid2 in state.adjacency.pn[v]:
            for u in tca_v[nid2]:
                removals.setdefault(u, set()).add(vid)


def _invalidate(
    adjacency: TreeAdjacency,
    tree: CoreComponentTree,
    affected: set[Vertex],
    removals: dict[Vertex, set[NodeId]],
) -> None:
    """Lines 3-6: each affected vertex's node id dies for itself and for
    its lower-coreness neighbors."""
    for v in affected:  # lint: order-ok commutative set inserts
        vid = tree.node_of[v].node_id
        removals.setdefault(v, set()).add(vid)
        tca_v = adjacency.tca[v]
        for nid2 in adjacency.pn[v]:
            for u in tca_v[nid2]:
                removals.setdefault(u, set()).add(vid)


def _all_subtree_nodes(root) -> list:
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def _refresh_adjacency(state: AnchoredState, changed: Changes, edges: Edges) -> None:
    """Bring tca/sn/pn and the support tables up to date after an anchoring.

    The rows of ``changed`` are rebuilt in full. Every other stale row
    gets its entry for one changed neighbor patched per edge of
    ``edges``: first each old entry is dropped, then each new one is
    added. Dropping all first keeps ``sn``/``pn`` exact: a node id whose
    bucket survives the drops still holds an unchanged vertex, so its
    coreness (and its class relative to the row owner) did not move.
    """
    _rebuild_rows(state, changed)
    anchors = state.anchors
    coreness = state.decomposition.coreness
    node_of = state.tree.node_of
    adjacency = state.adjacency
    tca = adjacency.tca
    sn = adjacency.sn
    pn = adjacency.pn
    fixed_support = state.fixed_support
    same_shell = state.same_shell
    # A row's entry for a neighbor is its anchor flag, or its coreness
    # and node id. An anchor stays one and a vertex whose layer alone
    # moved keeps its entries, so only these vertices' entries move.
    moved: set[Vertex] = set()
    for u, (was_anchor, cu, _, nid) in changed.items():
        _, now_cu, _, now_nid = state.snapshot(u)
        if not was_anchor and (cu, nid) != (now_cu, now_nid):
            moved.add(u)
    edges = [e for e in edges if e[0] in moved]
    for u, v in edges:
        _, cu, _, nid = changed[u]
        tca_v = tca[v]
        bucket = tca_v[nid]
        bucket.discard(u)
        if not bucket:
            del tca_v[nid]
            sn[v].discard(nid)
            pn[v].discard(nid)
        cv = coreness[v]
        if cu > cv:
            fixed_support[v] -= 1
        elif cu == cv:
            same_shell[v].remove(u)
    for u, v in edges:
        if u in anchors:
            fixed_support[v] += 1
            continue
        nid = node_of[u].node_id
        tca_v = tca[v]
        found = tca_v.get(nid)
        if found is None:
            tca_v[nid] = {u}
        else:
            found.add(u)
        cu = coreness[u]
        cv = coreness[v]
        if cu >= cv:
            sn[v].add(nid)
        else:
            pn[v].add(nid)
        if cu > cv:
            fixed_support[v] += 1
        elif cu == cv:
            # Canonical order, as a fresh TreeAdjacency build lists it.
            insort(same_shell[v], u, key=_sort_key)


def _rebuild_rows(state: AnchoredState, changed: Changes) -> None:
    """Recompute tca/sn/pn and the support tables of ``changed`` in full.

    Mirrors the tracked :class:`TreeAdjacency` pass: anchored neighbors
    are bucketed nowhere and counted as fixed support.
    """
    graph = state.graph
    anchors = state.anchors
    coreness = state.decomposition.coreness
    node_of = state.tree.node_of
    adjacency = state.adjacency
    for u in changed:
        cu = coreness[u]
        tca_u: dict[NodeId, set[Vertex]] = {}
        sn_u: set[NodeId] = set()
        pn_u: set[NodeId] = set()
        fixed = 0
        same: list[Vertex] = []
        # Canonical neighbor order keeps same_shell lists identical to a
        # fresh TreeAdjacency build (and stable across hash seeds).
        for v in sorted(graph.neighbors(u), key=_sort_key):
            if v in anchors:
                fixed += 1
                continue
            nid = node_of[v].node_id
            bucket = tca_u.get(nid)
            if bucket is None:
                tca_u[nid] = {v}
            else:
                bucket.add(v)
            cv = coreness[v]
            if cv >= cu:
                sn_u.add(nid)
            else:
                pn_u.add(nid)
            if cv > cu:
                fixed += 1
            elif cv == cu:
                same.append(v)
        adjacency.tca[u] = tca_u
        adjacency.sn[u] = sn_u
        adjacency.pn[u] = pn_u
        state.fixed_support[u] = fixed
        state.same_shell[u] = same
