"""The fault-injection engine hook.

A :class:`FaultInjector` binds to a
:class:`~repro.sim.kernel.SimKernel` just before the run starts
(``kernel.attach_injector(injector)``, or the ``injector=`` argument of
:func:`repro.sim.system.simulate`): it pushes every platform event of
its :class:`~repro.faults.events.FaultSchedule` into the kernel's event
heap as ``(core=-1, event)`` payloads.  The kernel pops those events in
strict time order, interleaved with packet completions, and hands each
to :meth:`FaultInjector.apply` together with itself; :meth:`apply` then
mutates the kernel's explicit :class:`~repro.sim.kernel.SimState`:

* **CoreFail** — the in-flight packet dies with the core (its pending
  completion is tombstoned through ``state.killed_pkts``), the queued
  descriptors are handled per the :data:`drain policy <DRAIN_POLICIES>`
  (``drop``: lost; ``reassign``: re-dispatched through the scheduler at
  the failure instant), the queue is marked down (it refuses offers and
  reads as full through the ``LoadView``), and the scheduler's
  ``on_core_down`` runs *before* any reassignment so aware policies
  never re-select the dead core;
* **CoreRecover** — the queue accepts again, the core restarts idle
  with a cold i-cache, and the scheduler's ``on_core_up`` runs;
* **CoreSlowdown** — the core's service-time multiplier changes for
  packets that start from now on.

Traffic events never reach the injector: arrival processes are
generated ahead of dispatch, so :func:`apply_traffic_events` reshapes a
materialized workload *before* the run, and
:class:`TrafficTransformSource` applies the identical transform chunk
by chunk over any :class:`~repro.sim.source.PacketSource` (streamed
fault scenarios).  Everything here is deterministic — the same
workload, scheduler seed and schedule produce byte-identical metrics.

Checkpointing: the injector pickles inside the kernel's
:class:`~repro.sim.kernel.Checkpoint` (it holds no reference to the
kernel); its pending timed events travel in the pickled event heap.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.faults.events import (
    CoreFail,
    CoreRecover,
    CoreSlowdown,
    FaultSchedule,
    ServiceFlap,
    TrafficSurge,
)
from repro.sim.source import PacketSource, WorkloadChunk
from repro.sim.workload import Workload

__all__ = [
    "DRAIN_POLICIES",
    "FaultInjector",
    "TrafficTransformSource",
    "apply_traffic_events",
]

#: What happens to a failing core's queued descriptors.
DRAIN_POLICIES = ("drop", "reassign")


class FaultInjector:
    """Applies a :class:`FaultSchedule`'s platform events to a run.

    One injector serves one run (like the kernel itself); construct
    a fresh one per simulation.  Pass it as the ``injector=`` argument
    of :func:`repro.sim.system.simulate`.
    """

    def __init__(
        self, schedule: FaultSchedule, drain_policy: str = "drop"
    ) -> None:
        if drain_policy not in DRAIN_POLICIES:
            raise ConfigError(
                f"unknown drain policy {drain_policy!r}; "
                f"choose from {', '.join(DRAIN_POLICIES)}"
            )
        self.schedule = schedule
        self.drain_policy = drain_policy
        # live fault state (samplers read these)
        self.cores_down: set[int] = set()
        self.slow_cores: dict[int, float] = {}
        # counters
        self.events_applied = 0
        self.packets_killed = 0
        self.packets_drained = 0
        self.packets_reassigned = 0
        self.reassign_drops = 0
        #: (label, t_ns) log of applied events, in application order
        self.applied_log: list[tuple[str, int]] = []
        self._bound = False

    # ------------------------------------------------------------------
    def bind(self, kernel, *, schedule_events: bool = True) -> None:
        """Validate the schedule against *kernel* and push its events.

        Pushes the schedule's platform events into the kernel's heap,
        refusing a schedule that starts before the kernel's current
        time; a resumed run passes ``schedule_events=False`` because the
        restored heap already carries the pending ones.  The kernel is
        not stored: :meth:`apply` receives it with every event.
        """
        if self._bound and schedule_events:
            raise SimulationError("a FaultInjector binds to one run only")
        self.schedule.validate_platform(
            kernel.config.num_cores, len(kernel.config.services)
        )
        if schedule_events:
            events = self.schedule.platform_events()
            now = kernel.state.now_ns
            if events and events[0].time_ns < now:
                # attached mid-run: the run already dispatched up to now
                raise SimulationError(
                    f"fault event {events[0].label} is before the run's "
                    f"current time ({now} ns)"
                )
            for ev in events:
                kernel.state.push(ev.time_ns, (-1, ev))
        self._bound = True

    # ------------------------------------------------------------------
    def apply(self, kernel, event, t_ns: int) -> None:
        """Apply one platform event to *kernel* at its activation time."""
        if isinstance(event, CoreFail):
            self._apply_fail(kernel, event.core_id, t_ns)
        elif isinstance(event, CoreRecover):
            self._apply_recover(kernel, event.core_id, t_ns)
        elif isinstance(event, CoreSlowdown):
            self._apply_slowdown(kernel, event.core_id, event.factor)
        else:
            raise SimulationError(f"injector cannot apply {event!r}")
        self.events_applied += 1
        self.applied_log.append((event.label, t_ns))

    # ------------------------------------------------------------------
    def _apply_fail(self, kernel, core: int, t_ns: int) -> None:
        st = kernel.state
        if core in self.cores_down:
            raise SimulationError(f"core {core} failed while already down")
        self.cores_down.add(core)
        # the packet in service dies with the core
        pkt = st.core_current_pkt[core]
        if st.core_busy[core] and pkt >= 0:
            st.killed_pkts.add(pkt)
            self._drop_packet(kernel, pkt, t_ns)
            self.packets_killed += 1
            st.core_current_pkt[core] = -1
        st.core_busy[core] = True  # a dead core never pulls work
        queued = st.queues.drain(core)
        st.queues.mark_down(core)
        # notify before touching the queued packets so an aware
        # scheduler has already evicted the core when reassignment
        # re-consults select_core
        kernel.scheduler.on_core_down(core, t_ns)
        if self.drain_policy == "reassign":
            for p in queued:
                self._reassign(kernel, p, t_ns)
        else:
            for p in queued:
                self._drop_packet(kernel, p, t_ns)
                self.packets_drained += 1

    def _apply_recover(self, kernel, core: int, t_ns: int) -> None:
        st = kernel.state
        if core not in self.cores_down:
            raise SimulationError(f"core {core} recovered while not down")
        self.cores_down.discard(core)
        st.queues.mark_up(core)
        st.core_busy[core] = False
        st.core_current_pkt[core] = -1
        st.core_last_service[core] = -1  # restarted: i-cache is cold
        kernel.scheduler.on_core_up(core, t_ns)

    def _apply_slowdown(self, kernel, core: int, factor: float) -> None:
        kernel.state.core_speed[core] = factor
        if factor == 1.0:
            self.slow_cores.pop(core, None)
        else:
            self.slow_cores[core] = factor

    # ------------------------------------------------------------------
    def _drop_packet(self, kernel, pkt: int, t_ns: int) -> None:
        """Account one fault-caused loss (drop + reorder + record)."""
        st = kernel.state
        win = kernel.window  # live packets always sit inside the window
        li = pkt - win.base
        fid = int(win.flow_id[li])
        sq = int(win.seq[li])
        m = st.metrics
        m.dropped += 1
        m.dropped_per_service[int(win.service_id[li])] += 1
        m.fault_dropped += 1
        st.reorder.on_drop(fid, sq)
        if kernel.config.record_departures:
            st.drop_records.append((fid, sq, t_ns))

    def _reassign(self, kernel, pkt: int, t_ns: int) -> None:
        """Re-dispatch one drained descriptor through the scheduler.

        Deliberately the scalar ``select_core`` even when the kernel
        runs the vectorized fast path: the reassigned packet is not a
        future arrival (planned columns cover arrivals only), and any
        table mutation this call makes bumps ``map_epoch``, which the
        kernel notices at the next arrival and replans — so fast and
        scalar runs see identical reassignments.
        """
        st = kernel.state
        win = kernel.window
        li = pkt - win.base
        sched = kernel.scheduler
        core = sched.select_core(
            int(win.flow_id[li]),
            int(win.service_id[li]),
            int(win.flow_hash[li]),
            t_ns,
        )
        if not 0 <= core < len(st.core_busy):
            raise SimulationError(
                f"{sched.name} returned core {core} during reassignment"
            )
        if st.core_busy[core]:
            if st.queues.offer(core, pkt):
                self.packets_reassigned += 1
            else:
                self._drop_packet(kernel, pkt, t_ns)
                self.reassign_drops += 1
        else:
            kernel.start_packet(core, pkt, t_ns)
            self.packets_reassigned += 1

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Injector counters for reports and samplers."""
        return {
            "events_applied": self.events_applied,
            "cores_down": len(self.cores_down),
            "cores_slow": len(self.slow_cores),
            "packets_killed": self.packets_killed,
            "packets_drained": self.packets_drained,
            "packets_reassigned": self.packets_reassigned,
            "reassign_drops": self.reassign_drops,
        }


# ----------------------------------------------------------------------
# traffic-side events (workload transform)
# ----------------------------------------------------------------------
def _transform_arrival_batch(
    arrival: np.ndarray, service: np.ndarray, events
) -> np.ndarray:
    """Per-packet composed traffic transform (new int64 array).

    Events apply sequentially in canonical schedule order, each masking
    on the *already-transformed* times; the composition is purely
    elementwise, so whole-array and per-chunk application produce
    identical values — :func:`apply_traffic_events` and
    :class:`TrafficTransformSource` both route through here (the
    source's release horizon too), which is what keeps the two paths
    bit-identical.
    """
    arrival = arrival.astype(np.int64, copy=True)
    for ev in events:
        if isinstance(ev, TrafficSurge):
            t0, t1 = ev.time_ns, ev.time_ns + ev.duration_ns
            mask = (service == ev.service_id) & (arrival >= t0) & (arrival < t1)
            arrival[mask] = t0 + ((arrival[mask] - t0) / ev.factor).astype(
                np.int64
            )
        elif isinstance(ev, ServiceFlap):
            for start, end in ev.outage_windows():
                mask = (
                    (service == ev.service_id)
                    & (arrival >= start)
                    & (arrival < end)
                )
                arrival[mask] = end
        else:  # pragma: no cover - kinds are closed over this module
            raise ConfigError(f"unknown traffic event {ev!r}")
    return arrival


def apply_traffic_events(workload: Workload, schedule: FaultSchedule) -> Workload:
    """Reshape *workload* per the schedule's traffic events.

    Events apply in time order to the already-transformed arrival
    times.  Both transforms are monotone within a service — a surge
    compresses its window toward the window start, a flap defers outage
    arrivals to the outage end — and the final stable re-sort keeps
    equal-time packets in their original relative order, so per-flow
    sequence numbers stay nondecreasing along the new arrival order and
    the reorder accounting remains valid.

    Returns *workload* unchanged when the schedule has no traffic
    events.  For the chunked equivalent (identical output, O(chunk)
    memory) wrap the run's :class:`~repro.sim.source.PacketSource` in a
    :class:`TrafficTransformSource`.
    """
    events = schedule.traffic_events()
    if not events:
        return workload
    arrival = _transform_arrival_batch(
        workload.arrival_ns, workload.service_id, events
    )
    order = np.argsort(arrival, kind="stable")
    return Workload(
        arrival_ns=arrival[order],
        service_id=workload.service_id[order],
        flow_id=workload.flow_id[order],
        size_bytes=workload.size_bytes[order],
        flow_hash=workload.flow_hash[order],
        seq=workload.seq[order],
        num_flows=workload.num_flows,
        num_services=workload.num_services,
        duration_ns=workload.duration_ns,
    )


class TrafficTransformSource(PacketSource):
    """Streaming :func:`apply_traffic_events`: a :class:`PacketSource`
    whose chunks are the inner source's packets with the schedule's
    traffic events applied — bit-identical to transforming the whole
    materialized workload, at O(chunk + displaced packets) memory.

    Soundness: each per-service composed transform is *monotone
    nondecreasing* (a surge with ``factor > 1`` compresses its window
    toward the window start without crossing the boundary; a flap
    defers outage arrivals to the outage end), so once the inner stream
    has advanced to original time ``W``, no future packet of service
    *s* can land before ``g_s(W)``.  Ingested packets are transformed,
    merged into a pending pool stable-sorted by transformed time, and
    released up to ``min_s g_s(W)``; equal transformed times keep input
    order, matching the whole-array stable argsort exactly.
    """

    def __init__(self, inner: PacketSource, schedule: FaultSchedule) -> None:
        super().__init__()
        self.inner = inner
        self.schedule = schedule
        self._events = schedule.traffic_events()
        self.num_packets = inner.num_packets
        self.num_flows = inner.num_flows
        self.num_services = inner.num_services
        self.duration_ns = inner.duration_ns
        self.chunk_size = inner.chunk_size
        # pending packets: transformed, stable-sorted by new arrival
        # time (col 0); None until first ingest
        self._pending: tuple[np.ndarray, ...] | None = None
        self._ingested_ns = -1  # last original arrival seen
        self._emitted = 0
        self._inner_done = False

    def clone(self) -> "TrafficTransformSource":
        return TrafficTransformSource(self.inner.clone(), self.schedule)

    # -- the stream transform ------------------------------------------
    def next_chunk(self):
        if not self._events:  # pass-through, re-based for our counter
            chunk = self.inner.next_chunk()
            if chunk is None:
                return None
            base = self._emitted
            self._emitted += len(chunk)
            return WorkloadChunk(
                base, chunk.arrival_ns, chunk.service_id, chunk.flow_id,
                chunk.size_bytes, chunk.flow_hash, chunk.seq,
            )
        target = self.chunk_size if self.chunk_size else max(self.num_packets, 1)
        releasable = 0
        while not self._inner_done:
            releasable = self._releasable()
            if releasable >= target:
                break
            chunk = self.inner.next_chunk()
            if chunk is None:
                self._inner_done = True
                releasable = (
                    self._pending[0].shape[0] if self._pending is not None else 0
                )
            else:
                self._ingest(chunk)
        if releasable == 0:
            return None
        n = min(target, releasable)
        cols = tuple(c[:n] for c in self._pending)
        rest = self._pending[0].shape[0] - n
        self._pending = tuple(c[n:] for c in self._pending) if rest else None
        base = self._emitted
        self._emitted += n
        return WorkloadChunk(base, *cols)

    def _ingest(self, chunk) -> None:
        """Transform one inner chunk and merge it into the pending pool
        (stable by transformed time: pending packets were ingested
        earlier, so concatenating them first keeps ties in input order).
        """
        arrival = _transform_arrival_batch(
            chunk.arrival_ns, chunk.service_id, self._events
        )
        if len(chunk):
            self._ingested_ns = int(chunk.arrival_ns[-1])
        cols = (
            arrival, chunk.service_id, chunk.flow_id,
            chunk.size_bytes, chunk.flow_hash, chunk.seq,
        )
        if self._pending is not None:
            cols = tuple(
                np.concatenate([p, c]) for p, c in zip(self._pending, cols)
            )
        order = np.argsort(cols[0], kind="stable")
        self._pending = tuple(c[order] for c in cols)

    def _releasable(self) -> int:
        """How many pending packets can never be preceded by a future
        inner packet: those at or below ``min_s g_s(W)``."""
        if self._pending is None or self._ingested_ns < 0:
            return 0
        n_svc = self.num_services
        horizon = int(
            _transform_arrival_batch(
                np.full(n_svc, self._ingested_ns, dtype=np.int64),
                np.arange(n_svc, dtype=np.int32),
                self._events,
            ).min()
        )
        # a future packet has original time >= W hence transformed time
        # >= g_s(W) >= horizon, and being later in input order it sorts
        # after equal-time pending packets: release <= horizon is safe
        return int(np.searchsorted(self._pending[0], horizon, side="right"))
