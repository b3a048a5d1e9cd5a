"""Whole-program lint passes (L1–L4) and their registry.

Importing this package registers every pass; see
:mod:`repro.lint.passes.base` for the interface and
:mod:`repro.lint.program` for the project model they consume.
"""

from repro.lint.passes import contract, layering, obscoverage, purity
from repro.lint.passes.base import PASS_REGISTRY, ProgramPass, all_passes
from repro.lint.passes.contract import CheckpointContractPass
from repro.lint.passes.layering import LAYER_NAMES, LAYER_OF_UNIT, LayeringPass
from repro.lint.passes.obscoverage import HOT_UNITS, ObsCoveragePass
from repro.lint.passes.purity import (
    EXEMPT_UNITS,
    SANCTIONED_GLOBALS,
    WorkerPurityPass,
)

__all__ = [
    "PASS_REGISTRY",
    "ProgramPass",
    "all_passes",
    "LayeringPass",
    "LAYER_OF_UNIT",
    "LAYER_NAMES",
    "WorkerPurityPass",
    "SANCTIONED_GLOBALS",
    "EXEMPT_UNITS",
    "ObsCoveragePass",
    "HOT_UNITS",
    "CheckpointContractPass",
    "contract",
    "layering",
    "obscoverage",
    "purity",
]
