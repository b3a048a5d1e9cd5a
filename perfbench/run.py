"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload gac-lj-b6 --seed 0 --seconds 26 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the details (every sample, cleared knobs, absent layers,
every problem found). With ``--trace 0`` the metrics are the end-to-end
ones, measured with no wrapper installed; with ``--trace 1`` they are
the per-layer ones, from runs wrapped by :mod:`layers`, alternated with
untraced runs so the tracing overhead is measured too.

Exit codes: 0 with a result line; 2 when the repository sources are
missing; 3 when the host has fewer usable cores than the workload has
workers (time-sliced numbers are never recorded).
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups before each timed run. ``setup_s`` is the median of all of
#: them, so it samples the host over the same window as ``run_s``.
SETUPS_PER_RUN = 2


def pin_knobs() -> list[str]:
    """Clear every ``REPRO_*`` variable (trace, verify, kernel, parallel,
    faults, CSR ...) so the shell cannot change what is measured."""
    cleared = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in cleared:
        del os.environ[name]
    return cleared


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def done(start: float, seconds: float, step: float) -> bool:
    """Whether another ``step``-long run would end more than half a step
    after ``seconds``: runs then fill the time with at most that overshoot."""
    return time.perf_counter() - start + step / 2 > seconds


def reap_workers() -> None:
    """Wait until every worker process this process started has ended.

    The scan pool shuts its executor down without waiting, so its
    workers end after the run returns; joining them here keeps them out
    of the next run's timing and leaves none behind at exit.
    """
    for child in multiprocessing.active_children():
        child.join()


def stop_helpers() -> None:
    """End every helper process: the pool workers, then the resource
    tracker that shared memory starts, which would otherwise outlive
    this process by a moment."""
    reap_workers()
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        # Closes the tracker's pipe and waits for the process to exit.
        tracker._stop()


def peak_rss_mb(with_workers: bool) -> float:
    """Peak resident memory of this process, plus its largest reaped
    child (the pool's largest worker) when the workload has workers."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_workers:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


class Bench:
    """One workload's set-ups, oracle, timed runs and answer checks."""

    def __init__(self, workload, seed: int) -> None:
        from workloads import answer, reference

        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.generate_s: list[float] = []
        self.csr_view_s: list[float] = []
        self.graph = None
        self.setup()

        self.expected = reference(workload.name, seed)
        oracle = workload.oracle
        if oracle is not None:
            _, result = self.attempt(oracle, reference(oracle.name, seed))
            if result is not None:
                # The cross-workload identity: this workload's answer on
                # this graph must be exactly the oracle's.
                self.expected = answer(result)

    @property
    def setup_s(self) -> list[float]:
        return [g + c for g, c in zip(self.generate_s, self.csr_view_s)]

    def setup(self) -> None:
        """Regenerate the replica and build its CSR view, timed, a few times."""
        from repro.graphs.csr import csr_view
        from workloads import replica

        for _ in range(SETUPS_PER_RUN):
            # Each set-up starts from the same heap, so the collector
            # runs at the same points every time.
            self.graph = None
            gc.collect()
            start = time.perf_counter()
            graph = replica(self.workload.dataset, self.seed)
            built = time.perf_counter()
            csr_view(graph)
            self.csr_view_s.append(time.perf_counter() - built)
            self.generate_s.append(built - start)
            self.graph = graph

    def attempt(self, workload, expected, run=None):
        """Run ``workload`` once and check its answer.

        Returns the run's wall seconds, without the check, and the
        result, or ``None`` when the run raised or answered wrongly.
        """
        from workloads import check

        self.attempted += 1
        problems: list[str] = []
        gc.collect()
        start = time.perf_counter()
        try:
            result = (run or workload.run)(self.graph)
        except Exception as exc:  # counted, reported, never dropped
            result = None
            problems.append(f"raised {exc!r}")
        elapsed = time.perf_counter() - start
        reap_workers()
        if not problems:
            problems = check(workload, self.graph, result, expected)
        if problems:
            self.failed += 1
            self.problems.extend(f"{workload.name}: {p}" for p in problems)
            result = None
        return elapsed, result

    def timed(self, run=None):
        """Fresh set-ups, then one checked run of the workload."""
        from workloads import answer

        self.setup()
        elapsed, result = self.attempt(self.workload, self.expected, run)
        if result is not None and self.expected is None:
            # No reference at this seed: later runs must repeat the first.
            self.expected = answer(result)
        return elapsed, result


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from untraced runs filling ``seconds``."""
    samples: list[float] = []
    start = time.perf_counter()
    while True:
        samples.append(bench.timed()[0])
        if done(start, seconds, statistics.median(samples)):
            break
    metrics = {
        "run_s": metric(statistics.median(samples), "s"),
        "setup_s": metric(statistics.median(bench.setup_s), "s"),
        "peak_rss_mb": metric(peak_rss_mb(bench.workload.workers > 1), "MB"),
    }
    return metrics, {"run_samples_s": samples}


def measure_layers(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics from traced runs alternated with untraced ones."""
    from layers import Tracer

    untraced: list[float] = []
    traced: list[tuple[Tracer, object]] = []
    start = time.perf_counter()
    while True:
        untraced.append(bench.timed()[0])
        tracer = Tracer()
        _, result = bench.timed(lambda g: tracer.run(bench.workload.run, g))
        traced.append((tracer, result))
        pair = statistics.median(untraced) + statistics.median(
            t.root_s for t, _ in traced
        )
        if done(start, seconds, pair):
            break
    # One whole traced run, the median one, so its layers add up.
    traced.sort(key=lambda tr: tr[0].root_s)
    tracer, result = traced[(len(traced) - 1) // 2]
    metrics = layer_metrics(bench, tracer, result)
    metrics["trace.overhead_ratio"] = metric(
        tracer.root_s / statistics.median(untraced) - 1, "ratio"
    )
    details = {
        "run_samples_s": untraced,
        "traced_samples_s": sorted(t.root_s for t, _ in traced),
        "absent": dict(tracer.absent),
        "missing_targets": dict(tracer.missing_targets),
        "top_level_s": dict(tracer.top),
    }
    return metrics, details


def layer_metrics(bench: Bench, tracer, result) -> dict:
    m = bench.graph.num_edges
    out = {
        "graphs.generate_s": metric(statistics.median(bench.generate_s), "s"),
        "graphs.csr_view_s": metric(statistics.median(bench.csr_view_s), "s"),
        "trace.run_s": metric(tracer.root_s, "s"),
        "gac.unattributed_s": metric(tracer.unattributed_s, "s"),
    }

    def busy(layer: str, name: str, calls: str | None = None) -> None:
        if layer in tracer.absent:
            return
        out[name] = metric(tracer.busy.get(layer, 0.0), "s")
        if calls:
            out[calls] = metric(tracer.calls.get(layer, 0), "count")

    busy("core.decomposition", "core.decomposition_s", "core.decomposition_calls")
    busy("core.peel", "core.peel_s", "core.peel_calls")
    busy("core.tree_build", "core.tree_build_s", "core.tree_build_calls")
    busy("state.build", "state.build_s")
    busy("bounds.compute", "bounds.compute_s", "bounds.compute_calls")
    busy("bounds.refined_total", "bounds.refined_total_s")
    busy("followers.search", "followers.search_s", "followers.search_calls")
    busy("followers.naive", "followers.naive_s")
    busy("kernels.table_build", "kernels.table_build_s")
    busy("kernels.table_refresh", "kernels.table_refresh_s", "kernels.table_refresh_calls")
    busy("reuse.validate", "reuse.validate_s", "reuse.validate_calls")
    busy("reuse.store", "reuse.store_s")
    busy("reuse.invalidate", "reuse.invalidate_s")
    busy("incremental.apply_anchor", "incremental.apply_anchor_s")
    busy("parallel.evaluate", "parallel.evaluate_s", "parallel.evaluate_calls")
    busy("parallel.pool_start", "parallel.pool_start_s")
    busy("parallel.close", "parallel.close_s")
    if "incremental.apply_anchor" not in tracer.absent:
        out["incremental.apply_anchor_self_s"] = metric(
            tracer.self_time.get("incremental.apply_anchor", 0.0), "s"
        )
    if "core.decomposition" not in tracer.absent:
        out["core.decomposition_edges_per_s"] = metric(
            ratio(
                tracer.calls.get("core.decomposition", 0) * m,
                tracer.busy.get("core.decomposition", 0.0),
            ),
            "edges/s",
        )

    # The Figure-13 counters of the traced run itself.
    c = vars(result.total_counters()) if result is not None else {}
    for key in ("explored_nodes", "visited_vertices"):
        if key in c:
            out[f"followers.{key}"] = metric(c[key], "count")
    if "visited_vertices" in c and "followers.search" not in tracer.absent:
        out["followers.visited_per_s"] = metric(
            ratio(c["visited_vertices"], tracer.busy.get("followers.search", 0.0)),
            "1/s",
        )
    if {"reused_nodes", "explored_nodes"} <= c.keys():
        out["reuse.hit_ratio"] = metric(
            ratio(c["reused_nodes"], c["reused_nodes"] + c["explored_nodes"]), "ratio"
        )
    if {"pruned_candidates", "evaluated_candidates"} <= c.keys():
        out["bounds.prune_ratio"] = metric(
            ratio(
                c["pruned_candidates"],
                c["pruned_candidates"] + c["evaluated_candidates"],
            ),
            "ratio",
        )
    return out


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    finally:
        stop_helpers()


def _main(argv: list[str] | None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cleared = pin_knobs()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    cores = len(os.sched_getaffinity(0))
    if workload.workers > cores:
        print(
            f"perfbench: {workload.name} not measured: {workload.workers} workers "
            f"but {cores} usable cores would time-slice",
            file=sys.stderr,
        )
        return 3

    bench = Bench(workload, args.seed)
    if args.trace:
        metrics, details = measure_layers(bench, args.seconds)
    else:
        metrics, details = measure(bench, args.seconds)
    details.update(
        workload=workload.name,
        seed=args.seed,
        usable_cores=cores,
        cleared_knobs=cleared,
        vertices=bench.graph.num_vertices,
        edges=bench.graph.num_edges,
        setup_samples_s=bench.setup_s,
        problems=bench.problems,
    )
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
