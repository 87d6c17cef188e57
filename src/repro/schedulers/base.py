"""Scheduler interface and registry.

A scheduler is consulted once per arriving packet and returns the target
core; the simulator enqueues there (or drops the packet when the queue
is full).  Schedulers see core load through a :class:`LoadView` so they
stay decoupled from the simulator's internals, and hear about core
failures and recoveries (:mod:`repro.faults`) through
:meth:`Scheduler.on_core_down` / :meth:`Scheduler.on_core_up`, which the
fault injector calls directly.

Flow hashes are passed in pre-computed (the trace pipeline CRC16-hashes
all flow keys in one vectorised batch) so per-packet work stays cheap;
schedulers that want a different hash are free to ignore the argument.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Protocol

from repro.errors import SchedulerError

__all__ = [
    "LoadView",
    "Scheduler",
    "register_scheduler",
    "make_scheduler",
    "available_schedulers",
]


class LoadView(Protocol):
    """Read-only view of per-core input-queue occupancy.

    ``occ[c]`` is core c's input-queue length, or ``queue_capacity``
    while core c is down, so a policy that never heard about a failure
    still sees the dead core as full.  The view keeps the list exact
    and mutates it in place.  Schedulers only read it, through the
    view they are bound to (``self.loads.occ``), and never store it in
    their own state.
    """

    num_cores: int
    queue_capacity: int
    occ: list[int]


class Scheduler(ABC):
    """Base class for packet schedulers.

    Lifecycle: construct → :meth:`bind` (once, with the load view) →
    per-packet :meth:`select_core` calls, interleaved with core
    down/up notifications when faults are injected.  ``bind`` may be
    called again to reset the scheduler onto a fresh system.

    **Map-epoch protocol** (the vectorized fast path): ``map_epoch`` is
    a monotone counter that the scheduler bumps on *every* mutation of
    whatever tables :meth:`assign_batch` reads — a rebalance, a
    ``core_down``/``core_up`` reaction, and :meth:`bind` itself.  The
    kernel precomputes a ``core_of`` column from :meth:`assign_batch`
    and keeps consuming it only while ``map_epoch`` is unchanged; any
    bump invalidates the column and the remaining suffix is
    recomputed.  A scheduler that never implements
    :meth:`assign_batch` can ignore the counter entirely — the kernel
    falls back to per-packet :meth:`select_core`.
    """

    #: Registry name (set on subclasses via :func:`register_scheduler`).
    name: str = "?"

    #: Per-packet side-effect hook ``(flow_id, flow_hash)`` the kernel
    #: calls for every *consumed* plan entry outside the span drain,
    #: replicating the unconditional bookkeeping ``select_core`` would
    #: have done (adaptive-hash's bucket counts).  ``None`` when the
    #: scheduler has no such per-packet state.
    batch_commit: Callable[[int, int], None] | None = None

    #: Vectorized sibling of :attr:`batch_commit`:
    #: ``(flow_id_arr, flow_hash_arr)`` — aligned numpy arrays covering
    #: one committed span in arrival order.  Must be observably
    #: equivalent to calling :attr:`batch_commit` element-by-element in
    #: order, and must not bump ``map_epoch`` (a committed span is
    #: already dispatched; invalidating it retroactively is a contract
    #: violation).  Every plan rides the span drain, so a scheduler
    #: that sets :attr:`batch_commit` must set this too.
    batch_commit_span: Callable[..., None] | None = None

    def __init__(self) -> None:
        self._loads: LoadView | None = None
        #: monotone table-mutation counter (see class docstring)
        self.map_epoch = 0

    @property
    def shard_static(self) -> bool:
        """True when the full assignment is a pure static function of
        the packet columns and the post-``bind`` tables — no occupancy
        read, no timer, no rebalance — so a core-partitioned sharded
        run can reproduce a single-process run bit for bit.

        Derived by default: the scheduler has a plan (a real
        :meth:`assign_batch`).  Subclasses whose tables move for
        reasons the derivation cannot see (adaptive-hash's periodic
        rebalance reads global per-bucket counts) override this with a
        plain ``shard_static = False`` class attribute; the sharded
        runner additionally verifies at run end that ``map_epoch``
        never moved after bind, so a wrong ``True`` fails loudly, never
        silently.
        """
        return type(self).assign_batch is not Scheduler.assign_batch

    # ------------------------------------------------------------------
    def bind(self, loads: LoadView) -> None:
        """Attach to a system; called before the first packet."""
        self._loads = loads
        self.map_epoch += 1

    @property
    def loads(self) -> LoadView:
        if self._loads is None:
            raise SchedulerError(f"{type(self).__name__} used before bind()")
        return self._loads

    @property
    def is_bound(self) -> bool:
        return self._loads is not None

    # ------------------------------------------------------------------
    @abstractmethod
    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        """Target core for one packet (must be in ``[0, num_cores)``)."""

    def assign_batch(self, flow_hash, service_id, flow_id, arrival_ns):
        """Vectorized core assignment for a span of future arrivals.

        Arguments are aligned numpy column slices (``flow_hash`` and
        ``flow_id`` int64, ``service_id`` int32, ``arrival_ns`` int64).

        Returns an int array of planned cores, or ``None`` when no fast
        path exists (the base implementation).  The contract:

        * the result may be a **prefix** — any length ``<= len(input)``
          is valid; the kernel falls back to :meth:`select_core` past
          the end (and replans after the next epoch bump);
        * every entry is a valid core, exact while ``map_epoch`` has
          not changed since planning;
        * entries never depend on queue occupancy or on when
          completions happen, so a plan may be drained as a whole
          span (:mod:`repro.sim.events.span`);
        * planning itself must be idempotent: calling this twice over
          overlapping spans must leave the scheduler in the same state
          as calling it once.
        """
        return None

    def on_core_down(self, core_id: int, t_ns: int) -> None:
        """The core failed (see :mod:`repro.faults`).

        Default: no reaction — the dead core's queue reads as
        permanently full through the :class:`LoadView`, so load-aware
        policies route around it only as fast as their own balancing
        machinery notices, which is exactly the "naive" baseline
        behaviour the resilience harness measures.  Policies with
        explicit placement state (map tables, bucket maps) override
        this to evict the core immediately.
        """

    def on_core_up(self, core_id: int, t_ns: int) -> None:
        """The failed core came back and is idle again."""

    def stats(self) -> dict[str, float]:
        """Scheduler-internal counters for reports (override to extend)."""
        return {}

    # helpers shared by several policies ------------------------------
    def _min_queue_core(self, cores=None) -> int:
        """``findMinQ``: the least-loaded core of *cores*, or of all
        cores when *cores* is None.  Ties go to the first minimum in
        *cores*' iteration order (the lowest id over all cores)."""
        occ = self.loads.occ
        if cores is None:
            return occ.index(min(occ))
        best = min(cores, key=occ.__getitem__, default=None)
        if best is None:
            raise SchedulerError("empty core set")
        return best


_REGISTRY: dict[str, Callable[..., Scheduler]] = {}


def register_scheduler(name: str):
    """Class decorator: register a scheduler under *name*."""

    def deco(cls):
        if name in _REGISTRY:
            raise ValueError(f"scheduler {name!r} already registered")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def make_scheduler(name: str, **kwargs) -> Scheduler:
    """Instantiate a registered scheduler by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise SchedulerError(
            f"unknown scheduler {name!r}; available: {', '.join(sorted(_REGISTRY))}"
        ) from None
    return factory(**kwargs)


def available_schedulers() -> list[str]:
    """Names of all registered schedulers."""
    return sorted(_REGISTRY)
