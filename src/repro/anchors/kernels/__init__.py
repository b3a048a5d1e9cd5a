"""Interchangeable follower-search kernels (the Algorithm 4/5 inner loop).

The follower search is the hot path of every greedy anchor scan, so the
per-node exploration is factored behind one tiny interface with two
backends:

``dict``
    The original dict-of-sets implementation, kept verbatim as the
    oracle (:mod:`repro.anchors.kernels.dict_backend`). Works on any
    graph, including ones with no CSR view.
``flat``
    Flat-array rewrite against the interned CSR ids
    (:mod:`repro.anchors.kernels.flat_backend`): dense per-id tables,
    an int-packed ``(shell, layer, id)`` heap key, generation-stamped
    scratch arrays. The default whenever a CSR view exists.

Both backends are *byte-identical* — follower sets, Figure-13 counters,
heap pop counts, anchor sequences — enforced by the differential
harness in ``tests/test_properties.py`` and the backend matrix in
``tests/test_kernels.py``; the backends change wall-clock only, exactly
like ``REPRO_CSR`` for the substrate kernels.

Selection precedence (``docs/kernels.md``): an explicit ``kernel=``
kwarg (or ``--kernel`` CLI flag, which feeds it) beats the
``REPRO_KERNEL`` environment variable, which beats the default. A
graph with no CSR view resolves the *requested* ``flat`` to the
*concrete* ``dict``, and the fallback is gauged so a run that silently
degraded is diagnosable.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Protocol

from repro import obs as _obs
from repro.anchors.kernels.dict_backend import DictExplorer
from repro.anchors.kernels.flat_backend import flat_explorer
from repro.errors import KernelError
from repro.graphs.csr import csr_view

if TYPE_CHECKING:
    from repro.anchors.state import AnchoredState
    from repro.core.tree import NodeId
    from repro.graphs.graph import Graph, Vertex


class FollowerExplorer(Protocol):
    """What a backend's per-candidate exploration context must provide."""

    def explore_nodes(
        self, todo: "list[tuple[NodeId, bool]]"
    ) -> "list[tuple[NodeId, set[Vertex], int]]":
        """Explore every ``(node id, is_own_node)`` pair in order.

        One call per candidate: the caller hands over the full list of
        tree nodes that survived the reuse/shell filters, and the
        backend returns ``(node id, surviving followers, heap pops)``
        per entry in the same order. Batching lets backends hoist their
        per-candidate table bindings out of the per-node loop.
        """
        ...

#: The recognized backend names, in documentation order.
KERNELS = ("dict", "flat")
#: Environment knob read when no explicit ``kernel=`` is given.
ENV_KERNEL = "REPRO_KERNEL"
#: Requested when neither kwarg nor environment chooses: the flat CSR
#: kernel, degrading to ``dict`` per graph when no CSR view exists.
DEFAULT_KERNEL = "flat"


def requested_kernel(kernel: "str | None" = None) -> str:
    """The backend name the caller asked for, before availability checks.

    Precedence: explicit ``kernel`` argument (the CLI's ``--kernel``
    arrives here as a kwarg) > ``REPRO_KERNEL`` > :data:`DEFAULT_KERNEL`.

    Raises:
        KernelError: for a name outside :data:`KERNELS` — a typo'd
            environment variable must fail loudly, not silently run the
            default backend.
    """
    if kernel is None:
        kernel = os.environ.get(ENV_KERNEL, "").strip() or DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise KernelError(
            f"unknown follower kernel {kernel!r}; expected one of {KERNELS}"
        )
    return kernel


def resolve_kernel(
    kernel: "str | None" = None, graph: "Graph | None" = None
) -> str:
    """The concrete backend a search will run, after the fallback.

    ``flat`` degrades to ``dict`` when ``graph`` is given but has no CSR
    view (``REPRO_CSR=0`` or unorderable labels), recording the
    ``kernels.fallback.no_csr`` gauge. Callers that resolve once per
    run (GAC, OLAK) pass the graph so the whole run — parent and
    workers — agrees on one concrete name.
    """
    name = requested_kernel(kernel)
    if name == "flat" and graph is not None and csr_view(graph) is None:
        _obs.gauge("kernels.fallback.no_csr", 1.0)
        name = "dict"
    return name


def make_explorer(
    name: str, state: "AnchoredState", x: "Vertex"
) -> FollowerExplorer:
    """A per-candidate explorer: ``explore_nodes(todo) -> [(nid, set, pops)]``.

    ``name`` must be concrete (pass it through :func:`resolve_kernel`
    first); as a final guard, ``flat`` still degrades to ``dict`` here
    when the state's graph has no CSR view, so a caller that resolved
    without a graph can never crash on a dict-only one. (Cached tables
    on the state prove a view exists — the common case skips the
    lookup.)
    """
    if name == "flat" and (
        state.kernel_tables is not None or csr_view(state.graph) is not None
    ):
        return flat_explorer(state, x)
    return DictExplorer(state, x)
