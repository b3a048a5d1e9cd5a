"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything coming from this package with a single ``except`` clause
while still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised for structurally invalid graph operations."""


class VertexNotFoundError(GraphError, KeyError):
    """Raised when an operation references a vertex that is not in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """Raised when an operation references an edge that is not in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class AnchorNotFoundError(GraphError):
    """Raised when an anchor set references vertices absent from the graph.

    Deliberately *not* a ``KeyError`` subclass: an absent anchor is a
    caller contract violation detected up front, not a failed lookup
    deep inside an algorithm.
    """

    def __init__(self, missing: "list[object]") -> None:
        shown = ", ".join(repr(a) for a in missing[:5])
        suffix = f" (and {len(missing) - 5} more)" if len(missing) > 5 else ""
        super().__init__(f"anchor vertices not in the graph: {shown}{suffix}")
        self.missing = list(missing)


class VerificationError(ReproError, AssertionError):
    """Raised by :mod:`repro.verify` when a runtime invariant fails.

    Also an ``AssertionError`` so test harnesses that treat assertion
    failures specially (e.g. pytest rewriting, ``-O`` awareness
    audits) classify it correctly.
    """


class DatasetError(ReproError):
    """Raised when a dataset cannot be built or loaded."""


class BudgetError(ReproError, ValueError):
    """Raised when an anchoring budget is invalid for the given graph."""


class ParseError(ReproError, ValueError):
    """Raised when an edge-list file cannot be parsed."""


class KernelError(ReproError, ValueError):
    """Raised when a follower-kernel name is not a known backend."""


class ParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter, such as ``k``, is out of range."""


class CheckpointError(ReproError):
    """Raised when a checkpoint file cannot be read, or does not match the run.

    A resume must never silently continue from the wrong snapshot: a
    missing/corrupt file, a version mismatch, a different algorithm, a
    different graph (fingerprint), or different algorithm parameters all
    abort with this error instead of producing a subtly divergent run.
    """
