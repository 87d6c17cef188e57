"""Layer tracer: class-level timing wrappers with self-time accounting.

:class:`Tracer` patches public functions of the simulator by
module/class/attribute *name* and records, per layer, the call count,
the inclusive time and the self time (inclusive time minus the time of
traced calls nested inside it).  Self times of all layers plus the
import phase add up to the traced process's wall time, less whatever no
wrapper covers (reported as ``trace.unattributed_s``).

Two rules keep the wrappers from changing what they measure:

* only plain functions found in a class's (or module's) own
  ``__dict__`` are wrapped, so inherited methods keep their identity —
  the kernel's ``type(s).assign_batch is Scheduler.assign_batch`` test
  and ``batch_commit = None`` class attributes behave exactly as
  untraced;
* a target that no longer exists is listed in :attr:`Tracer.untraced`
  instead of raising, so deleting a backend, engine or plan does not
  break the benchmark.

Wrappers must be installed before the kernels and schedulers they
observe are constructed: the kernel binds some methods (``select_core``,
``on_depart``, ``core_fn()``) once per run.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Target", "Family", "Tracer", "FULL_TARGETS", "LIGHT_TARGETS"]


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module.owner.attr`` (owner ``None`` for a
    module-level function).  ``factory`` wraps the callable the function
    *returns* instead of the call itself."""

    layer: str
    module: str
    owner: str | None
    attr: str
    factory: bool = False


@dataclass(frozen=True)
class Family:
    """``attr`` on every subclass of ``module.base`` that defines it."""

    layer_prefix: str
    module: str
    base: str
    attrs: tuple[str, ...]
    #: modules whose import defines further subclasses
    discover: tuple[str, ...] = ()


#: what a traced round observes
FULL_TARGETS: tuple[Target | Family, ...] = (
    Target("kernel.init", "repro.sim.kernel", "SimKernel", "__init__"),
    Target("kernel.run", "repro.sim.kernel", "SimKernel", "run"),
    Target("events.span", "repro.sim.events.span", "SpanDriver", "attempt"),
    Target("events.phase1", "repro.sim.events.backend", "NumpyBackend", "core_fn",
           factory=True),
    Target("events.phase1", "repro.sim.events.backend", "NumbaBackend", "core_fn",
           factory=True),
    Target("reorder.on_depart", "repro.sim.reorder", "ReorderDetector", "on_depart"),
    Target("reorder.on_drop", "repro.sim.reorder", "ReorderDetector", "on_drop"),
    Target("metrics.finalize", "repro.sim.metrics", "SimMetrics", "finalize"),
    Target("faults.apply", "repro.faults.injector", "FaultInjector", "apply"),
    Target("setup.build", "repro.experiments.batch", "WorkloadSpec", "build"),
    Target("experiments.tournament", "repro.experiments.tournament", None,
           "run_tournament"),
    # simulate() and run_batch() look run_sharded up on the package
    Target("sharding.run", "repro.sim.sharding", None, "run_sharded"),
    Family("source", "repro.sim.source", "PacketSource", ("next_chunk",),
           discover=("repro.faults.injector", "repro.sim.sharding",
                     "repro.workloads")),
    Family("sched", "repro.schedulers.base", "Scheduler",
           ("select_core", "assign_batch", "batch_commit", "batch_commit_span"),
           discover=("repro.schedulers", "repro.core.laps")),
)

#: what an untraced round observes: workload builds (set-up time of the
#: tournament, which builds inside the call) and finalized reports
#: (the tournament's per-cell outcomes) — a handful of calls per round
LIGHT_TARGETS: tuple[Target | Family, ...] = (
    Target("setup.build", "repro.experiments.batch", "WorkloadSpec", "build"),
    Target("metrics.finalize", "repro.sim.metrics", "SimMetrics", "finalize"),
)


class _Stats:
    __slots__ = ("calls", "total", "self")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    """Installs timing wrappers; use as a context manager.

    Besides per-layer times it keeps the counters the kernel exposes
    publicly (``events_popped``, ``span_stats``) summed over every
    kernel run, the rows returned by ``assign_batch`` plans, and every
    finalized :class:`~repro.sim.metrics.SimReport`.
    """

    def __init__(self, targets: tuple[Target | Family, ...] = FULL_TARGETS) -> None:
        self.targets = targets
        self.stats: dict[str, _Stats] = {}
        self.counts: dict[str, int] = {}
        self.reports: list[Any] = []
        #: targets that could not be resolved, as ``module:owner.attr``
        self.untraced: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- accounting ----------------------------------------------------
    def _stat(self, layer: str) -> _Stats:
        st = self.stats.get(layer)
        if st is None:
            st = self.stats[layer] = _Stats()
        return st

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _close(self, st: _Stats, t0: float) -> None:
        """End the innermost open call: charge it to *st* and its
        duration to the enclosing call's child time."""
        dt = time.perf_counter() - t0
        stack = self._stack
        child = stack.pop()
        st.calls += 1
        st.total += dt
        st.self += dt - child
        if stack:
            stack[-1] += dt

    def timed(self, fn: Callable, layer: str, post: Callable | None = None) -> Callable:
        """*fn* wrapped to record one call of *layer* per invocation."""
        st = self._stat(layer)
        stack = self._stack
        close = self._close
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(st, t0)
            if post is not None:
                post(args, result)
            return result

        return wrapper

    @contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as *layer*."""
        st = self._stat(layer)
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(st, t0)

    def total_s(self, layer: str) -> float:
        st = self.stats.get(layer)
        return st.total if st is not None else 0.0

    # -- per-layer hooks -----------------------------------------------
    def _post_for(self, layer: str) -> Callable | None:
        if layer == "kernel.run":
            def post(args, _result):
                kernel = args[0]
                self.count("kernel.events_popped", int(getattr(kernel, "events_popped", 0)))
                stats = getattr(kernel, "span_stats", None) or {}
                for key in ("spans_committed", "spans_bailed", "packets_spanned"):
                    self.count("events." + key, int(stats.get(key, 0)))
            return post
        if layer == "sched.assign_batch":
            def post(_args, result):
                if result is not None:
                    self.count("sched.plan_rows", len(result))
            return post
        if layer == "metrics.finalize":
            return lambda _args, result: self.reports.append(result)
        return None

    # -- installation --------------------------------------------------
    def _wrap(self, owner: Any, attr: str, layer: str, factory: bool = False) -> None:
        orig = vars(owner)[attr]
        if factory:
            @functools.wraps(orig)
            def fn(*args, **kwargs):
                return self.timed(orig(*args, **kwargs), layer)
        else:
            fn = self.timed(orig, layer, self._post_for(layer))
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, fn)

    @staticmethod
    def _resolve(module: str, owner: str | None) -> Any:
        obj: Any = importlib.import_module(module)
        for part in (owner.split(".") if owner else ()):
            obj = getattr(obj, part)
        return obj

    def install(self) -> "Tracer":
        for target in self.targets:
            if isinstance(target, Family):
                self._install_family(target)
                continue
            name = f"{target.module}:{target.owner + '.' if target.owner else ''}{target.attr}"
            try:
                owner = self._resolve(target.module, target.owner)
            except (ImportError, AttributeError):
                self.untraced.append(name)
                continue
            if not isinstance(vars(owner).get(target.attr), types.FunctionType):
                self.untraced.append(name)
                continue
            self._wrap(owner, target.attr, target.layer, target.factory)
        return self

    def _install_family(self, fam: Family) -> None:
        for module in fam.discover:
            try:
                importlib.import_module(module)
            except ImportError:
                pass
        try:
            base = self._resolve(fam.module, fam.base)
        except (ImportError, AttributeError):
            self.untraced.extend(f"{fam.module}:{fam.base}.{a}" for a in fam.attrs)
            return
        classes, todo = [], list(type.__subclasses__(base))
        while todo:
            cls = todo.pop()
            if cls not in classes:
                classes.append(cls)
                todo.extend(type.__subclasses__(cls))
        for attr in fam.attrs:
            layer = f"{fam.layer_prefix}.{attr}"
            found = False
            for cls in classes:
                if isinstance(vars(cls).get(attr), types.FunctionType):
                    self._wrap(cls, attr, layer)
                    found = True
            if not found:
                self.untraced.append(f"{fam.module}:{fam.base}.{attr}")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
