"""repro.verify — opt-in runtime invariant checking.

Cross-validates hot-path results (coreness, shell layers, follower
sets, cached reuse counts, upper-bound pruning) against slow reference
implementations. Disabled by default; enable with::

    REPRO_VERIFY=1 python -m pytest        # size-capped checks
    REPRO_VERIFY=full python -m pytest     # no size caps

or per call via the ``verify=True`` kwarg accepted by
``greedy_anchored_coreness``, ``olak``, ``core_decomposition`` and
``peel_decomposition``. A failed invariant raises
:class:`repro.errors.VerificationError`.

This module holds only the enablement machinery, so hot-path modules
can import it without dragging in the reference implementations; the
actual checks live in :mod:`repro.verify.invariants` and are imported
lazily at the call sites.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

_ENV_FLAG = "REPRO_VERIFY"
_ENV_LIMIT = "REPRO_VERIFY_LIMIT"
_DEFAULT_EDGE_LIMIT = 4000

#: Forced on/off override (set by the ``verification`` context manager
#: / ``verify=`` kwargs); ``None`` defers to the environment.
_forced: bool | None = None
#: Re-entrancy depth: reference implementations call the very functions
#: they validate, so checks are suspended while a check runs.
_suspended: int = 0


def enabled() -> bool:
    """Whether invariant checks should run at this moment."""
    if _suspended > 0:
        return False
    if _forced is not None:
        return _forced
    return _env_enabled()


def thorough() -> bool:
    """Whether size caps are lifted (``REPRO_VERIFY=full``)."""
    return _env_value() == "full"


def edge_limit(cost_factor: int = 1) -> int:
    """Largest ``graph.num_edges`` an expensive check should accept.

    ``cost_factor`` scales the cap down for super-linear checks (e.g.
    the full greedy-selection sweep re-evaluates every candidate).
    Returns a huge sentinel in ``full`` mode.
    """
    if thorough():
        return 1 << 60
    raw = os.environ.get(_ENV_LIMIT, "")
    try:
        limit = int(raw) if raw else _DEFAULT_EDGE_LIMIT
    except ValueError:
        limit = _DEFAULT_EDGE_LIMIT
    return max(1, limit // max(1, cost_factor))


def _env_value() -> str:
    return os.environ.get(_ENV_FLAG, "").strip().lower()


def _env_enabled() -> bool:
    return _env_value() not in {"", "0", "false", "off"}


@contextmanager
def verification(force: bool | None = None) -> Iterator[None]:
    """Force verification on (``True``) / off (``False``) for a block.

    ``None`` keeps an enclosing block's force, or else reads
    ``REPRO_VERIFY`` once here and forces that for the block, so the
    checks inside never read the environment again. APIs thread their
    ``verify`` kwarg straight through.
    """
    global _forced
    if force is None:
        if _forced is not None:
            yield
            return
        force = _env_enabled()
    previous = _forced
    _forced = force
    try:
        yield
    finally:
        _forced = previous


@contextmanager
def suspended() -> Iterator[None]:
    """Disable checks while a check's own reference machinery runs.

    Observability is muted alongside: the reference implementations call
    the very instrumented functions whose counters and spans they
    cross-check, and their work must not pollute the measured numbers.
    """
    from repro.obs import runtime as _obs_runtime

    global _suspended
    _suspended += 1
    try:
        with _obs_runtime.suspended():
            yield
    finally:
        _suspended -= 1


__all__ = ["edge_limit", "enabled", "suspended", "thorough", "verification"]
