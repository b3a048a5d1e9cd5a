"""Tests of the benchmark's layer hooks.

Run from the repository root (under a minute)::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
from layers import HOOKS, Hook, Tracer, _resolve
from workloads import WORKLOADS, reference, replica

_SEARCH = {
    "state.build",
    "core.peel",
    "core.tree_build",
    "bounds.compute",
    "bounds.refined_total",
    "followers.search",
    "kernels.table_build",
    "kernels.table_refresh",
    "reuse.validate",
    "reuse.store",
    "reuse.invalidate",
    "incremental.apply_anchor",
}
_PARALLEL = {"parallel.pool_start", "parallel.evaluate", "parallel.close"}
#: The layers each workload must pass through; every other layer must
#: not be called at all.
EXPECTED = {
    "gac-lj-b6": _SEARCH,
    "gac-yt-b20": _SEARCH,
    "baseline-arxiv-b2": {
        "state.build",
        "core.peel",
        "core.tree_build",
        "core.decomposition",
        "followers.naive",
        "incremental.apply_anchor",
    },
    "gac-lj-b6-w2": _SEARCH | _PARALLEL,
}


def test_every_hook_is_expected_somewhere():
    assert {hook.layer for hook in HOOKS} == set().union(*EXPECTED.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_hooks_fire_and_account_for_the_whole_run(name):
    workload = WORKLOADS[name]
    graph = replica(workload.dataset, 0)
    originals = _targets()
    tracer = Tracer()
    result = tracer.run(workload.run, graph)

    assert {"anchors": result.anchors, "gains": result.gains} == reference(name, 0)
    assert not tracer.absent and not tracer.missing_targets
    called = {layer for layer, calls in tracer.calls.items() if calls}
    assert called == EXPECTED[name]
    # Top-level spans plus the unattributed rest are the traced run.
    assert tracer.unattributed_s >= 0
    assert sum(tracer.top.values()) + tracer.unattributed_s == pytest.approx(
        tracer.root_s, rel=1e-9
    )
    # Self times partition the covered time: nothing is counted twice.
    assert sum(tracer.self_time.values()) == pytest.approx(
        sum(tracer.top.values()), rel=1e-6
    )
    for layer, busy in tracer.busy.items():
        assert 0 <= tracer.self_time[layer] <= busy + 1e-9
    # The original functions are back once the traced run ends.
    assert all(a is b for a, b in zip(_targets(), originals))


def _targets() -> list[object]:
    return [_resolve(t)[2] for hook in HOOKS for t in hook.targets]


def recurse(depth: int) -> int:
    return depth if depth == 0 else recurse(depth - 1) + inner()


def inner() -> int:
    return 1


def test_nested_calls_are_counted_once():
    tracer = Tracer(
        (
            Hook("outer", (f"{__name__}:recurse",)),
            Hook("inner", (f"{__name__}:inner",)),
        )
    )
    assert tracer.run(lambda: recurse(5)) == 5
    assert tracer.calls == {"outer": 1, "inner": 5}
    assert tracer.top.keys() == {"outer"}
    assert tracer.self_time["outer"] == pytest.approx(
        tracer.busy["outer"] - tracer.busy["inner"]
    )


def test_a_deleted_target_is_absent_with_a_reason_not_zero():
    gone = (
        Hook(
            "kernels.table_build",
            ("repro.anchors.kernels.flat_backend:DeletedTables.__init__",),
        ),
        Hook("kernels.table_refresh", ("repro.anchors.kernels.no_such_module:f",)),
        Hook("core.peel", (f"{__name__}:no_such_function", f"{__name__}:inner")),
    )
    tracer = Tracer(gone)
    assert tracer.run(inner) == 1
    assert "DeletedTables" in tracer.absent["kernels.table_build"]
    assert "no_such_module" in tracer.absent["kernels.table_refresh"]
    assert "no_such_function" in tracer.missing_targets["core.peel"]

    bench = SimpleNamespace(
        graph=replica("arxiv", 0), generate_s=[1.0], csr_view_s=[1.0]
    )
    metrics = run.layer_metrics(bench, tracer, None)
    assert "kernels.table_build_s" not in metrics
    assert "kernels.table_refresh_s" not in metrics
    assert metrics["core.peel_s"]["value"] == 0.0


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="the pool workload needs two cores"
)
def test_no_process_outlives_a_pool_run():
    # In its own session, so every process it starts is easy to find.
    root = Path(run.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "gac-lj-b6-w2",
         "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, start_new_session=True,
    )
    out, _ = proc.communicate(timeout=180)
    assert proc.returncode == 0
    assert '"correct": true' in out.decode().splitlines()[-1]
    time.sleep(0.5)
    left = [
        pid for pid in os.listdir("/proc")
        if pid.isdigit() and _session(pid) == proc.pid
    ]
    assert left == []


def _session(pid: str) -> int | None:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # Fields after the parenthesised command: state, ppid, pgrp, session.
    return int(stat.rsplit(")", 1)[1].split()[3])
