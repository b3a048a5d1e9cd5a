"""Optional numpy-vectorized follower exploration (escape hatch).

Vectorizes the two row scans the flat backend performs per heap pop —
the Theorem 4.15 degree-bound recomputation over a vertex's same-shell
row, and the push-candidate filtering on survival — as numpy boolean
masks over per-id int32 arrays, in the ``SparseUtilsCython`` style of
flat-kernel libraries. Everything sequential (the heap order, the
cascading shrink, the seed filters) stays scalar: those steps carry the
ordering the byte-identity contract depends on, and vectorizing them
buys nothing.

numpy is an *optional* dependency and this module is the only place in
the package allowed to import it (enforced by the L5 whole-program lint
pass): the import is attempted once at module load, :func:`available`
reports the outcome, and :func:`repro.anchors.kernels.resolve_kernel`
degrades ``numpy`` to ``flat`` when it failed — the full test suite
passes with numpy absent. ``numpy.random`` stays banned by rule R2
everywhere, including here (the kernels are deterministic; they have no
use for randomness).

Tables: :class:`NumpyTables` extends the flat tables with int32/int64
mirrors (``status`` is shared memory — a ``frombuffer`` view over the
flat bytearray — so scalar writes and vector gathers see one array).
The numpy side keeps its own generation-stamp array: stamps written by
one backend are simply stale generations to the other, so a state
explored through both backends stays correct without any syncing.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

try:  # pragma: no cover - exercised via available() on both outcomes
    import numpy as _np
except ImportError:  # pragma: no cover - the numpy-less environments
    _np = None  # type: ignore[assignment]

from repro.anchors.kernels.flat_backend import (
    _DISCARDED,
    _IN_HEAP,
    _SURVIVED,
    FlatTables,
    tables_for,
)
from repro.anchors.state import AnchoredState
from repro.graphs.csr import CSRGraph, csr_view
from repro.graphs.graph import Vertex

if TYPE_CHECKING:
    from repro.core.tree import NodeId


def available() -> bool:  # lint: obs-ok availability probe, no work to measure
    """Whether numpy imported — the backend's availability gate."""
    return _np is not None


class NumpyTables(FlatTables):
    """Flat tables plus the numpy mirrors the vector steps gather from."""

    __slots__ = ("core_np", "layer_np", "status_np", "stamp_np", "same_np")

    def __init__(self, state: AnchoredState, csr: CSRGraph) -> None:
        super().__init__(state, csr)
        n = csr.num_vertices
        self.core_np = _np.asarray(self.core, dtype=_np.int32)
        self.layer_np = _np.asarray(self.layer, dtype=_np.int32)
        # One shared buffer: scalar writes through the bytearray are
        # visible to vector gathers through this view, and vice versa.
        self.status_np = _np.frombuffer(self.status, dtype=_np.uint8)
        self.stamp_np = _np.zeros(n, dtype=_np.int64)
        self.same_np = [
            _np.asarray(row, dtype=_np.int32) for row in self.same
        ]

    def apply_update(self, state: AnchoredState, dirty: set[Vertex]) -> None:
        super().apply_update(state, dirty)
        index = self.index
        core_np = self.core_np
        layer_np = self.layer_np
        same_np = self.same_np
        for u in dirty:  # lint: order-ok per-id updates are independent
            i = index[u]
            core_np[i] = self.core[i]
            layer_np[i] = self.layer[i]
            same_np[i] = _np.asarray(self.same[i], dtype=_np.int32)


def numpy_tables_for(state: AnchoredState) -> NumpyTables:  # lint: obs-ok cache accessor; the search span wraps it
    """The state's cached tables, upgraded to :class:`NumpyTables`.

    A state previously explored by the flat backend holds plain
    :class:`FlatTables`; they are rebuilt with mirrors here. The
    replacement stays a ``FlatTables`` subclass, so the flat backend
    keeps working on it unchanged.
    """
    tables = tables_for(state)
    if isinstance(tables, NumpyTables):
        return tables
    csr = csr_view(state.graph)
    assert csr is not None  # tables_for above already required it
    upgraded = NumpyTables(state, csr)
    state.kernel_tables = upgraded
    return upgraded


class NumpyExplorer:
    """Per-candidate exploration context for the numpy backend."""

    __slots__ = ("state", "tables", "x", "xid", "cg", "lo", "hi", "seeds")

    def __init__(self, state: AnchoredState, x: Vertex) -> None:
        if _np is None:
            raise RuntimeError(
                "numpy backend requested but numpy is not installed"
            )
        tables = numpy_tables_for(state)
        self.state = state
        self.tables = tables
        self.x = x
        xid = tables.index[x]
        self.xid = xid
        self.cg = tables.begin_candidate(xid)
        self.seeds = tables.tca_ids[xid]
        # Own-node seed window as one key range (see the flat backend).
        kx = tables.keys[xid]
        self.lo = ((kx >> tables.shift) + 1) << tables.shift
        self.hi = ((kx >> tables.shift2) + 1) << tables.shift2

    def explore_nodes(
        self, todo: "list[tuple[NodeId, bool]]"
    ) -> "list[tuple[NodeId, set[Vertex], int]]":
        """Explore each ``(node id, is_own_node)`` pair in order."""
        return [
            (nid, *self._explore(nid, is_own_node)) for nid, is_own_node in todo
        ]

    def _explore(self, nid: "NodeId", is_own_node: bool) -> tuple[set[Vertex], int]:
        """Survivors and heap pops within one tree node (vectorized bound)."""
        t = self.tables
        core = t.core
        layer = t.layer
        fixed = t.fixed
        same_np = t.same_np
        same = t.same
        keys = t.keys
        is_anchor = t.is_anchor
        status = t.status
        status_np = t.status_np
        stamp_np = t.stamp_np
        layer_np = t.layer_np
        dplus = t.dplus
        xmark = t.xmark
        mask = t.idmask
        xid = self.xid
        cg = self.cg
        t.gen = gen = t.gen + 1
        touched = t.touched
        del touched[:]
        count_nonzero = _np.count_nonzero
        # Pre-discard the candidate's own id instead of masking it out
        # of every row (the flat backend's trick: x never enters an
        # exploration, and DISCARDED contributes nothing to any scan).
        stamp_np[xid] = gen
        status[xid] = _DISCARDED

        heap: list[int] = []
        seeds = self.seeds.get(nid)
        if seeds:
            if is_own_node:
                lo = self.lo
                hi = self.hi
                for vi in seeds:
                    if is_anchor[vi]:
                        continue
                    k = keys[vi]
                    if lo <= k < hi:
                        stamp_np[vi] = gen
                        status[vi] = _IN_HEAP
                        touched.append(vi)
                        heappush(heap, k)
            else:
                for vi in seeds:
                    if is_anchor[vi]:
                        continue
                    stamp_np[vi] = gen
                    status[vi] = _IN_HEAP
                    touched.append(vi)
                    heappush(heap, keys[vi])

        pops = 0
        ns = 0  # live survivor count — gates the cascading shrink
        while heap:
            u = heappop(heap) & mask
            if status[u] != _IN_HEAP:
                continue
            pops += 1
            cu = core[u]
            iu = layer[u]
            bound = fixed[u]
            # begin_candidate only marks neighbors with core >= c(x), so
            # the support test is the single stamp comparison.
            if xmark[u] == cg:
                bound += 1
            row = same_np[u]
            higher = None
            if row.size:
                # Vectorized Theorem 4.15 bound: stale-generation
                # statuses zero out to UNEXPLORED, x is excluded by its
                # DISCARDED mark (its support came from the adjacency
                # check above).
                valid = stamp_np[row] == gen
                st = status_np[row] * valid
                higher = layer_np[row] > iu
                bound += int(
                    count_nonzero(higher & (st != _DISCARDED))
                ) + int(
                    count_nonzero(
                        ~higher & ((st == _IN_HEAP) | (st == _SURVIVED))
                    )
                )
            if bound >= cu + 1:
                status[u] = _SURVIVED
                dplus[u] = bound
                ns += 1
                if higher is not None:
                    # Vectorized push filter: untouched higher-layer
                    # same-shell neighbors enter the heap.
                    for vn in row[higher & ~valid]:
                        v = int(vn)
                        stamp_np[v] = gen
                        status[v] = _IN_HEAP
                        touched.append(v)
                        heappush(heap, keys[v])
            elif ns:
                # The cascade only decrements SURVIVED neighbors; with
                # none alive it is a guaranteed no-op (see the flat
                # backend), so the row scans are skipped outright.
                status[u] = _DISCARDED
                work = t.work
                work.append(u)
                while work:
                    wv = work.pop()
                    for v in same[wv]:
                        if stamp_np[v] == gen and status[v] == _SURVIVED:
                            d = dplus[v] - 1
                            dplus[v] = d
                            if d < core[v] + 1:
                                status[v] = _DISCARDED
                                ns -= 1
                                work.append(v)
                    if not ns:
                        del work[:]
                        break
            else:
                status[u] = _DISCARDED

        if not ns:
            return set(), pops
        labels = t.labels
        return {labels[i] for i in touched if status[i] == _SURVIVED}, pops
