"""Bundled decomposition state for anchored-coreness algorithms.

The greedy algorithms repeatedly need, for the current graph + anchor
set: the peel decomposition (coreness + shell-layer pairs), the core
component tree, and the tree-classified adjacency structures. This
module bundles them into one object.

:meth:`AnchoredState.build` and :meth:`AnchoredState.with_anchor`
compute everything from scratch; they are the correctness oracle. The
greedy algorithms instead update a state in place with
:func:`repro.anchors.incremental.apply_anchor`, the paper's local
subtree rebuild (Algorithm 3 lines 7–10, DESIGN.md §6), which re-peels
only the anchor's core component and refreshes only the rows the
anchoring changed, upper bounds included. The result-*reuse* bookkeeping is implemented in
:mod:`repro.anchors.reuse`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.core.decomposition import CoreDecomposition, peel_decomposition
from repro.core.tree import CoreComponentTree, NodeId, TreeAdjacency
from repro.graphs.graph import Graph, Vertex

if TYPE_CHECKING:  # pragma: no cover - type-only import (cycle avoidance)
    from repro.anchors.bounds import UpperBounds
    from repro.anchors.kernels.flat_backend import FlatTables


class AnchoredState:
    """Graph + anchors + every derived structure the algorithms need.

    Attributes:
        graph: the underlying (never-mutated) graph.
        anchors: the current anchor set.
        decomposition: peel decomposition with shell-layer pairs,
            computed with ``anchors`` treated as infinite-degree.
        tree: the core component tree of the anchored decomposition.
        adjacency: the ``tca`` / ``sn`` / ``pn`` structures.
    """

    __slots__ = (
        "graph",
        "anchors",
        "decomposition",
        "tree",
        "adjacency",
        "fixed_support",
        "same_shell",
        "kernel_tables",
        "bounds",
    )

    def __init__(
        self,
        graph: Graph,
        anchors: frozenset[Vertex],
        decomposition: CoreDecomposition,
        tree: CoreComponentTree,
        adjacency: TreeAdjacency,
    ) -> None:
        self.graph = graph
        self.anchors = anchors
        self.decomposition = decomposition
        self.tree = tree
        self.adjacency = adjacency
        # Per-vertex support that no candidate exploration can change:
        # anchored neighbors and deeper-shell neighbors always count
        # toward the (c(u)+1)-core degree bound. The same-shell neighbor
        # lists are the only part Algorithm 4 treats dynamically. Both
        # are produced by the adjacency pass when it tracked anchors.
        if adjacency.same_shell or not graph.num_vertices:
            self.fixed_support = adjacency.fixed_support
            self.same_shell = adjacency.same_shell
        else:
            rebuilt = TreeAdjacency(graph, decomposition, tree, anchors=anchors)
            self.fixed_support = rebuilt.fixed_support
            self.same_shell = rebuilt.same_shell
        # Flat per-id mirrors for the flat follower kernel, built lazily on
        # first flat exploration and kept current by
        # ``apply_anchor`` (see repro.anchors.kernels.flat_backend).
        self.kernel_tables: FlatTables | None = None
        # Section 4.5 upper bounds, built on the first
        # ``compute_upper_bounds`` call and kept current by
        # ``apply_anchor`` (see repro.anchors.bounds).
        self.bounds: UpperBounds | None = None

    @classmethod
    def build(cls, graph: Graph, anchors: Iterable[Vertex] = ()) -> "AnchoredState":
        """Compute all derived structures for ``graph`` with ``anchors``."""
        anchor_set = frozenset(anchors)
        decomposition = peel_decomposition(graph, anchor_set)
        tree = CoreComponentTree.build(graph, decomposition)
        adjacency = TreeAdjacency(graph, decomposition, tree, anchors=anchor_set)
        return cls(graph, anchor_set, decomposition, tree, adjacency)

    def with_anchor(self, x: Vertex) -> "AnchoredState":
        """A fresh state with ``x`` added to the anchor set."""
        return AnchoredState.build(self.graph, self.anchors | {x})

    # ------------------------------------------------------------------
    # Convenience accessors used heavily by the algorithms
    # ------------------------------------------------------------------
    def coreness(self, u: Vertex) -> int:
        """``c^A(u)`` under the current anchors."""
        return self.decomposition.coreness[u]

    def pair(self, u: Vertex) -> tuple[int, int]:
        """The shell-layer pair ``P(u)``."""
        return self.decomposition.shell_layer[u]

    def node_id(self, u: Vertex) -> NodeId:
        """``i_u = T[u].I``."""
        return self.tree.node_of[u].node_id

    def sn(self, u: Vertex) -> set[NodeId]:
        """``sn(u)``: adjacent node ids with coreness >= ``c(u)``."""
        return self.adjacency.sn[u]

    def pn(self, u: Vertex) -> set[NodeId]:
        """``pn(u)``: adjacent node ids with coreness < ``c(u)``."""
        return self.adjacency.pn[u]

    def tca(self, u: Vertex) -> dict[NodeId, set[Vertex]]:
        """``tca[u]``: u's neighbors partitioned by their tree node."""
        return self.adjacency.tca[u]

    def node_k(self) -> dict[NodeId, int]:
        """Coreness per tree node id (the reuse cache's validation key)."""
        return {nid: node.k for nid, node in self.tree.nodes.items()}

    def candidates(self) -> list[Vertex]:
        """All non-anchor vertices (the anchor candidate pool)."""
        return [u for u in self.graph.vertices() if u not in self.anchors]
