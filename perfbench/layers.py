"""Per-layer timing from outside the program.

A :class:`Tracer` replaces the public functions of each layer with
timing wrappers, on the name the caller actually looks up (a function
imported by name into ``repro.anchors.gac`` is patched there; a method
or classmethod is patched on its class), and puts every original back
when the traced call ends.

Spans are aggregated in memory as they close: per layer the busy time,
the call count and the self time (busy time minus the time of wrapped
calls nested inside it), plus the time of the spans that sit directly
under the root span. A call that re-enters a layer already on the span
stack is not a new span, so nested calls are never counted twice.

A target that no longer exists (a deleted class, a renamed function) is
skipped: its layer is reported absent, with the reason, never as 0.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from functools import wraps


@dataclass(frozen=True)
class Hook:
    """One layer: a span name and the ``module:attr.path`` names it wraps."""

    layer: str
    targets: tuple[str, ...]


#: The layers a GAC run passes through, each wrapped where its caller
#: looks it up. Data generation and the CSR build are timed by the
#: benchmark itself during set-up, not here.
HOOKS: tuple[Hook, ...] = (
    Hook("state.build", ("repro.anchors.state:AnchoredState.build",)),
    Hook(
        "core.peel",
        (
            "repro.anchors.state:peel_decomposition",
            "repro.anchors.incremental:peel_decomposition",
        ),
    ),
    Hook("core.tree_build", ("repro.core.tree:CoreComponentTree.build",)),
    Hook("core.decomposition", ("repro.anchors.followers:core_decomposition",)),
    Hook("bounds.compute", ("repro.anchors.gac:compute_upper_bounds",)),
    Hook("bounds.refined_total", ("repro.anchors.gac:refined_total",)),
    Hook("followers.search", ("repro.anchors.gac:find_followers",)),
    Hook("followers.naive", ("repro.anchors.gac:followers_naive",)),
    Hook(
        "kernels.table_build",
        ("repro.anchors.kernels.flat_backend:FlatTables.__init__",),
    ),
    Hook(
        "kernels.table_refresh",
        ("repro.anchors.kernels.flat_backend:FlatTables.apply_update",),
    ),
    Hook("reuse.validate", ("repro.anchors.reuse:FollowerCache.valid_counts",)),
    Hook("reuse.store", ("repro.anchors.reuse:FollowerCache.store",)),
    Hook("reuse.invalidate", ("repro.anchors.reuse:FollowerCache.apply_removals",)),
    Hook("incremental.apply_anchor", ("repro.anchors.gac:apply_anchor",)),
    Hook("parallel.pool_start", ("repro.parallel.pool:CandidateScanPool.__init__",)),
    Hook("parallel.evaluate", ("repro.parallel.pool:CandidateScanPool.evaluate",)),
    Hook("parallel.close", ("repro.parallel.pool:CandidateScanPool.close",)),
)


def _resolve(target: str) -> tuple[object, str, object]:
    """``(owner, attribute name, raw attribute)`` for ``module:a.b``.

    The raw attribute is read from the owner's ``__dict__`` so a
    classmethod stays a classmethod object. Raises ``LookupError`` with
    a one-line reason when any part is missing.
    """
    module_name, _, path = target.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} is gone ({exc})") from None
    *parents, name = path.split(".")
    for part in parents:
        try:
            owner = getattr(owner, part)
        except AttributeError:
            raise LookupError(f"{module_name}.{part} is gone") from None
    raw = vars(owner).get(name)
    if raw is None:
        raise LookupError(f"{target} is gone")
    return owner, name, raw


class Tracer:
    """Wraps the layers' public functions and aggregates their spans."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS) -> None:
        self.hooks = hooks
        #: layer -> one-line reason, for layers none of whose targets exist.
        self.absent: dict[str, str] = {}
        #: targets that were missing although their layer has another.
        self.missing_targets: dict[str, str] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        #: busy time of the spans directly under the root span.
        self.top: dict[str, float] = {}
        self.root_s = 0.0
        # Open spans: [layer, start, time of closed child spans].
        self._stack: list[list] = []
        self._open: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for hook in self.hooks:
            reasons = []
            for target in hook.targets:
                try:
                    owner, name, raw = _resolve(target)
                except LookupError as exc:
                    reasons.append(str(exc))
                    continue
                self._saved.append((owner, name, raw))
                setattr(owner, name, self._wrap(hook.layer, raw))
            if len(reasons) == len(hook.targets):
                self.absent[hook.layer] = "; ".join(reasons)
            elif reasons:
                self.missing_targets[hook.layer] = "; ".join(reasons)

    def uninstall(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)

    def _wrap(self, layer: str, raw: object) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self._timed(layer, raw.__func__))
        return self._timed(layer, raw)

    def _timed(self, layer: str, fn):
        stack = self._stack
        open_layers = self._open
        clock = time.perf_counter

        @wraps(fn)
        def timed(*args, **kwargs):
            if layer in open_layers:
                return fn(*args, **kwargs)
            frame = [layer, 0.0, 0.0]
            stack.append(frame)
            open_layers.add(layer)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(clock() - frame[1])

        return timed

    # -- spans ----------------------------------------------------------
    def _close(self, duration: float) -> None:
        layer, _, child_s = self._stack.pop()
        self._open.discard(layer)
        self.busy[layer] = self.busy.get(layer, 0.0) + duration
        self.self_time[layer] = self.self_time.get(layer, 0.0) + duration - child_s
        self.calls[layer] = self.calls.get(layer, 0) + 1
        parent = self._stack[-1]
        parent[2] += duration
        if len(self._stack) == 1:
            self.top[layer] = self.top.get(layer, 0.0) + duration

    def run(self, fn, *args, **kwargs):
        """Call ``fn`` as the root span, with every hook installed."""
        self.install()
        self._stack.append(["root", 0.0, 0.0])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.root_s = time.perf_counter() - start
            self._stack.clear()
            self._open.clear()
            self.uninstall()

    @property
    def unattributed_s(self) -> float:
        """Root time that no top-level span covers."""
        return self.root_s - sum(self.top.values())
