"""The benchmark's workloads, their inputs and the checks on their answers.

Every workload is one ``greedy_anchored_coreness`` call on a dataset
replica with ``tie_break="id"``, so its answer is a total order that no
change to scan order, bounds or workers may alter. Tracing and runtime
verification are forced off and the worker count is explicit, so the
shell environment cannot change what is measured. ``kernel=`` is left
out on purpose: the benchmark measures the default users get.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from repro.anchors.gac import GreedyResult, greedy_anchored_coreness
from repro.core.decomposition import coreness_gain
from repro.datasets import registry
from repro.graphs.generators import (
    attach_celebrity_fans,
    dense_core_overlay,
    powerlaw_social_graph,
)
from repro.graphs.graph import Graph

#: ``--seed`` that reproduces ``registry.load`` byte for byte; the
#: committed reference answers hold only for it.
DEFAULT_SEED = 0

REFERENCES = Path(__file__).with_name("references.json")


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    budget: int
    workers: int = 0
    follower_method: str = "tree"
    #: Untimed run whose answer this one must equal on the same graph.
    oracle: Workload | None = None

    def run(self, graph: Graph) -> GreedyResult:
        return greedy_anchored_coreness(
            graph,
            self.budget,
            follower_method=self.follower_method,
            tie_break="id",
            workers=self.workers,
            obs=False,
            verify=False,
        )


_LJ = Workload("gac-lj-b6", "livejournal", 6)
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        _LJ,
        Workload("gac-yt-b20", "youtube", 20),
        Workload(
            "baseline-arxiv-b2",
            "arxiv",
            2,
            follower_method="naive",
            oracle=Workload("gac-arxiv-b2", "arxiv", 2),
        ),
        dataclasses.replace(_LJ, name="gac-lj-b6-w2", workers=2, oracle=_LJ),
    )
}


def replica(dataset: str, seed: int) -> Graph:
    """The dataset replica regenerated from its recipe with ``seed`` added
    to the recipe's own seed; ``DEFAULT_SEED`` gives ``registry.load``."""
    spec = registry.spec(dataset)
    base = spec.seed + seed
    graph = powerlaw_social_graph(
        spec.n,
        spec.average_degree,
        seed=base,
        exponent=spec.exponent,
        max_degree_fraction=spec.max_degree_fraction,
    )
    if spec.overlay_groups > 0:
        dense_core_overlay(
            graph,
            num_groups=spec.overlay_groups,
            group_size=spec.overlay_size,
            edge_probability=spec.overlay_p,
            seed=base + 7,
        )
    if spec.fan_hubs > 0:
        attach_celebrity_fans(
            graph, num_hubs=spec.fan_hubs, fan_size=spec.fan_size, seed=base + 13
        )
    return graph


def answer(result: GreedyResult) -> dict[str, list[int]]:
    return {"anchors": list(result.anchors), "gains": list(result.gains)}


def reference(name: str, seed: int) -> dict[str, list[int]] | None:
    """The committed answer of workload ``name``, at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCES.read_text())[name]


def check(
    workload: Workload,
    graph: Graph,
    result: GreedyResult,
    expected: dict[str, list[int]] | None,
) -> list[str]:
    """Every way ``result`` is wrong; empty when it is right.

    ``expected`` is the answer the run must reproduce exactly (a
    committed reference, an oracle's answer or an earlier run's), if
    there is one. The claimed total gain is always recomputed from two
    full core decompositions.
    """
    problems = []
    got = answer(result)
    if result.truncated or len(got["anchors"]) != workload.budget:
        problems.append(f"{len(got['anchors'])} of {workload.budget} anchors")
    if expected is not None and got != expected:
        problems.append(f"answer {got} differs from {expected}")
    actual = coreness_gain(graph, result.anchors)
    if result.total_gain != actual:
        problems.append(f"total_gain {result.total_gain} but coreness gain {actual}")
    return problems
