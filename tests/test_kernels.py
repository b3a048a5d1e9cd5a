"""Tests for the interchangeable follower-search kernels.

Backend selection precedence and loud failure on typos, the
availability fallbacks (numpy missing, no CSR view) with their
diagnosability gauges, byte-identity of GAC and OLAK across the full
``kernel x workers`` matrix, counter parity through
``FollowerCounters.from_window``, and correctness of the incremental
flat-table maintenance (``apply_update``) against a fresh build. See
``docs/kernels.md`` for the contract these tests pin.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import obs
from repro.anchors import kernels
from repro.anchors.followers import FollowerCounters, find_followers
from repro.anchors.gac import gac
from repro.anchors.incremental import apply_anchor
from repro.anchors.kernels.flat_backend import FlatTables
from repro.anchors.state import AnchoredState
from repro.datasets import registry
from repro.olak.olak import olak

from conftest import hub_graph_and_anchors

#: Every backend the current environment can actually run.
AVAILABLE_KERNELS = ("dict", "flat") + (
    ("numpy",) if kernels.numpy_available() else ()
)

FAST = settings(max_examples=25, deadline=None)


# ----------------------------------------------------------------------
# Selection precedence: kwarg > REPRO_KERNEL > default


class TestSelection:
    def test_default_is_flat(self, monkeypatch):
        monkeypatch.delenv(kernels.ENV_KERNEL, raising=False)
        assert kernels.requested_kernel() == "flat"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "dict")
        assert kernels.requested_kernel() == "dict"

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "dict")
        assert kernels.requested_kernel("flat") == "flat"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(kernels.ENV_KERNEL, "  ")
        assert kernels.requested_kernel() == "flat"

    @pytest.mark.parametrize("source", ["kwarg", "env"])
    def test_unknown_name_fails_loudly(self, monkeypatch, source):
        if source == "env":
            monkeypatch.setenv(kernels.ENV_KERNEL, "cuda")
            with pytest.raises(ValueError, match="cuda"):
                kernels.requested_kernel()
        else:
            with pytest.raises(ValueError, match="cuda"):
                kernels.requested_kernel("cuda")


# ----------------------------------------------------------------------
# Availability fallbacks, gauged so a degraded run is diagnosable


class TestFallbacks:
    def test_numpy_falls_back_to_flat_when_unavailable(self, monkeypatch):
        from repro.anchors.kernels import numpy_backend

        monkeypatch.setattr(numpy_backend, "_np", None)
        name = kernels.resolve_kernel("numpy")
        assert name == "flat"
        assert obs.gauges_snapshot()["kernels.fallback.numpy_unavailable"] == 1

    def test_flat_falls_back_to_dict_without_csr(self, monkeypatch):
        monkeypatch.setenv("REPRO_CSR", "0")
        graph = registry.load("arxiv")
        assert kernels.resolve_kernel("flat", graph=graph) == "dict"
        assert obs.gauges_snapshot()["kernels.fallback.no_csr"] == 1

    def test_find_followers_works_without_csr(self, monkeypatch):
        """An explicit flat request on a CSR-less graph degrades, not crashes."""
        monkeypatch.setenv("REPRO_CSR", "0")
        graph = registry.load("arxiv")
        state = AnchoredState.build(graph)
        x = min(graph.vertices(), key=lambda u: (graph.degree(u), u))
        baseline = find_followers(AnchoredState.build(graph), x, kernel="dict")
        report = find_followers(state, x, kernel="flat")
        assert report.counts == baseline.counts
        assert report.members == baseline.members


# ----------------------------------------------------------------------
# Byte-identity across the kernel x workers matrix (the tentpole
# contract): anchors, gains, follower totals, Figure-13 counters.


def _gac_observables(result):
    return (
        result.anchors,
        result.gains,
        result.followers,
        result.truncated,
        [vars(t.counters) for t in result.traces],
        [t.candidate_count for t in result.traces],
    )


class TestMatrixIdentity:
    def test_gac_identical_across_kernels_and_workers(self):
        graph = registry.load("arxiv")
        reference = _gac_observables(gac(graph, 3, kernel="dict", workers=0))
        for kernel in AVAILABLE_KERNELS:
            for workers in (0, 2, 4):
                if kernel == "dict" and workers == 0:
                    continue
                observed = _gac_observables(
                    gac(graph, 3, kernel=kernel, workers=workers)
                )
                assert observed == reference, (kernel, workers)

    def test_olak_identical_across_kernels(self):
        graph = registry.load("arxiv")
        reference = None
        for kernel in AVAILABLE_KERNELS:
            result = olak(graph, 3, 3, kernel=kernel)
            observed = (
                result.anchors,
                result.followers,
                result.kcore_growth,
                result.coreness_gain,
            )
            if reference is None:
                reference = observed
            else:
                assert observed == reference, kernel


# ----------------------------------------------------------------------
# Counter parity through the registry window (the Figure-13 facade)


def test_counters_from_window_parity_across_backends_arxiv_b5():
    """The arxiv b=5 run reports identical counters from every backend.

    ``FollowerCounters.from_window`` reads registry deltas, so this
    also proves the backends increment the *registry* identically —
    not just the per-trace accumulators.
    """
    graph = registry.load("arxiv")
    reference = None
    for kernel in AVAILABLE_KERNELS:
        window = obs.window()
        result = gac(graph, 5, kernel=kernel, workers=0)
        observed = (
            vars(FollowerCounters.from_window(window)),
            result.anchors,
            result.gains,
        )
        if reference is None:
            reference = observed
        else:
            assert observed == reference, kernel


# ----------------------------------------------------------------------
# Incremental table maintenance: after each apply_anchor the cached flat
# tables must equal a from-scratch build field by field, and answer
# exactly like one (covers core moves, layer-only moves staling
# neighbor splits, support-row and sn_ids refresh). The hub makes the
# anchored component's neighborhood span most of the graph, so a
# refresh that skips a changed vertex's neighbors shows up.

#: Every table field that ``apply_update`` maintains.
TABLE_FIELDS = (
    "core",
    "shell",
    "layer",
    "keys",
    "fixed",
    "same",
    "higher",
    "loweq",
    "support",
    "is_anchor",
    "tca_ids",
    "sn_ids",
)


@given(hub_graph_and_anchors())
@FAST
def test_incremental_tables_match_fresh_build(case):
    graph, anchors = case
    state = AnchoredState.build(graph)
    # Warm the cached tables pre-anchor so apply_anchor takes the
    # incremental apply_update path instead of a rebuild.
    seed = next(iter(sorted(graph.vertices())))
    find_followers(state, seed, kernel="flat")
    tables = state.kernel_tables
    assert tables is not None
    for step, x in enumerate(anchors, 1):
        apply_anchor(state, x)
        assert state.kernel_tables is tables
        fresh = AnchoredState.build(graph, anchors[:step])
        scratch_tables = FlatTables(fresh, tables.csr)
        for field in TABLE_FIELDS:
            assert getattr(tables, field) == getattr(scratch_tables, field), (
                field,
                anchors[:step],
            )
    for u in sorted(graph.vertices()):
        if u in state.anchors:
            continue
        incremental = find_followers(state, u, kernel="flat")
        scratch = find_followers(fresh, u, kernel="dict")
        assert incremental.counts == scratch.counts, u
        assert incremental.members == scratch.members, u
