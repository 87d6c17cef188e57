"""The steppable simulation kernel.

:class:`SimState` owns every piece of live run state — core arrays,
per-flow placement memory, the queue bank, the event heap, metrics and
the reorder detector — as plain fields instead of run-loop closure
locals.  :class:`SimKernel` drives that state through ``step()`` /
``run_until(t_ns)`` / ``run()``: the arrival loop and the drain phase
are ordinary methods.  The kernel calls its observers directly: the
scheduler, at most one fault injector (timed heap events go to
``injector.apply(kernel, event, t_ns)``) and at most one telemetry
probe (``probe.maybe_sample(t_ns, kernel)`` per arrival and per drain
step).  None of them stores the kernel, and :meth:`SimKernel.finalize`
drops the compiled closures, so a finished run holds no reference
cycle and is freed by reference counting.

The kernel consumes packets through a
:class:`~repro.sim.source.PacketSource`: a plain
:class:`~repro.sim.workload.Workload` is wrapped in a
:class:`~repro.sim.source.MaterializedSource` whose single whole-run
chunk reproduces the historical in-memory path, while a
:class:`~repro.sim.source.StreamingSource` feeds the same packet
sequence chunk by chunk at O(chunk) memory.  Live chunks form the
**arrival window** (``kernel.window``): arrivals dispatch from it,
in-flight packet indices stay global, and a chunk is retired as soon as
every packet it holds is dead (dispatched, departed or dropped), which
bounds resident workload memory for streamed runs.

Two properties are preserved from the original monolithic loop:

* **hot-loop cost** — at activation the kernel compiles ``begin`` (the
  one start rule: it charges a packet's service time and returns the
  completion instant its caller schedules) and ``complete_until`` as
  closures over the state containers (lists, dicts, arrays mutated in
  place), so the per-packet path performs no ``self.`` attribute
  lookups; the closures re-compile only when the window slides (once
  per chunk).  The loop records what happens and settles the books
  only where someone looks: a departure or drop is one row of an
  egress log on the kernel, and :meth:`SimKernel._settle` applies the
  log in vectors at the settle points it lists (every segment reload,
  any read of ``kernel.metrics`` or ``kernel.reorder``, ...).  Between
  advances, and whenever an observer runs, the state equals per-event
  bookkeeping field for field.  On top of that sits the
  **epoch-cached vectorized scheduling** fast path: for schedulers
  implementing
  :meth:`~repro.schedulers.base.Scheduler.assign_batch` the kernel
  plans a ``core_of`` column for the window suffix in one vector call
  and the arrival loop consumes it instead of calling ``select_core``
  per packet, re-planning whenever the scheduler's ``map_epoch`` shows
  a table mutation (see ``docs/performance.md``);
* **determinism** — advancing in any sequence of ``run_until`` horizons
  produces bit-identical results to one uninterrupted ``run()``,
  because events are popped in the same global time order either way,
  and a streamed run is bit-identical to a materialized one because the
  sources produce identical packet sequences.  That equivalence is what
  makes checkpoint/resume exact.

Checkpointing: :meth:`SimKernel.checkpoint` pickles the run state and
nothing else — ``SimState`` *and* the scheduler *and* the injector in
one blob, so shared references (the scheduler's bound ``LoadView`` is
the state's queue bank) survive the round trip — and stamps it with
config/workload fingerprints (the workload fingerprint is the streaming
digest of :func:`~repro.sim.source.workload_fingerprint`, identical
across materialized and streamed builds of the same spec).
:meth:`SimKernel.resume` restores the blob against the same config and
workload-or-source (which are deliberately *not* serialized: every
packet sequence is a pure function of its spec), rebuilds the arrival
window by pulling a fresh clone of the source up to the saved position
and continues the run; the resumed run's
:class:`~repro.sim.metrics.SimReport` is identical to an uninterrupted
one, whichever source kind took or resumes the checkpoint.  See
``docs/architecture.md``.
"""

from __future__ import annotations

import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush, heapreplace
from typing import Any

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.schedulers.base import Scheduler
from repro.sim.config import SimConfig
from repro.sim.events.span import RETRY_STRIDE, SpanDriver
from repro.sim.metrics import SimMetrics, SimReport
from repro.sim.queues import QueueBank
from repro.sim.reorder import ReorderDetector
from repro.sim.source import (
    MaterializedSource,
    PacketSource,
    WorkloadChunk,
    concat_chunks,
    empty_chunk,
    workload_fingerprint,
)
from repro.sim.workload import Workload

__all__ = ["SimState", "SimKernel", "Checkpoint", "CHECKPOINT_VERSION"]

#: bump when the pickled state layout changes incompatibly.
#: v7: the blob is exactly ``(SimState, scheduler, injector)``; the
#: event heap and its bookkeeping are plain ``SimState`` fields and the
#: queue bank holds its FIFOs as a list of deques, so the v6 layout
#: (an ``EventQueue`` object and one ``BoundedQueue`` per core) no
#: longer unpickles into it.
CHECKPOINT_VERSION = 7

#: local-index stride the arrival loop converts to plain Python lists
#: at a time — bounds resident unboxed columns to O(segment) for any
#: window size, and the egress log to a segment's departures and drops
#: (each reload settles the books).  Kept small: every committed span
#: invalidates the unboxed segment and the scalar stretches between
#: spans are short (a retry stride), so a large segment would cost more
#: to unbox than the scalar packets it feeds
_SEGMENT = 4_096

#: ceiling for the exponential span-retry backoff: a run whose spans
#: keep bailing (an attached injector or probe bails every attempt)
#: settles at one cheap attempt per ~16k arrivals instead of one per
#: RETRY_STRIDE
_MAX_RETRY_STRIDE = 16_384

#: cap on how far ahead one assign_batch plan reaches; bounds both the
#: column's list size and the vector work wasted per epoch bump
_PLAN_SPAN = 65_536


# ----------------------------------------------------------------------
@dataclass
class SimState:
    """All live state of one simulation run, explicitly owned.

    Everything the run loop mutates lives here — between advances
    nothing hides in closure locals or instance attributes of the
    kernel (inside one, departures and drops wait in the kernel's
    egress log until :meth:`SimKernel._settle`).  The whole
    object (together with the scheduler and injector sharing its
    references) pickles into a :class:`Checkpoint`.  Packet indices
    (``next_arrival``, ``core_current_pkt``, queue contents, heap
    completions) are *global* positions in the packet sequence, valid
    across window slides.

    The future-event set is ``heap``, a binary heap of ``(time_ns, seq,
    payload)`` tuples: a completion's payload is ``(core, pkt)``, a
    timed platform event's ``(-1, event)``.  ``seq`` is the tie-break
    counter, so equal instants pop in push order and payloads are never
    compared.  :meth:`push` is the checked way in; the kernel's
    compiled closures and the span commit work on the list directly and
    keep ``seq``, ``last_pop_ns`` and ``popped`` exact themselves
    before anything reads them or pushes.
    """

    #: horizon up to which the run has advanced (``run_until`` bound)
    now_ns: int
    #: global index of the next workload arrival to dispatch
    next_arrival: int
    #: the drain phase has completed
    drained: bool
    core_busy: list[bool]
    core_last_service: list[int]
    core_speed: list[float]
    core_current_pkt: list[int]
    #: in-flight packets tombstoned by a core failure
    killed_pkts: set[int]
    #: last core each flow was served on (-1 = never) — a plain list,
    #: not an ndarray: the hot loop reads and writes one scalar per
    #: packet, where list indexing beats numpy scalar boxing ~4x
    flow_last_core: list[int]
    flow_migrated: np.ndarray
    queues: QueueBank
    metrics: SimMetrics
    reorder: ReorderDetector
    departures: list[tuple[int, int, int]]
    drop_records: list[tuple[int, int, int]]
    #: arrival instant of the last dispatched packet (drain anchor —
    #: with a streamed source the final arrival time is not known up
    #: front, so the run loop records it as it dispatches)
    last_arrival_ns: int = 0
    #: pending events; mutated in place, never rebound (closures bind it)
    heap: list[tuple[int, int, Any]] = field(default_factory=list)
    #: seq of the next pushed event
    seq: int = 0
    #: time of the last popped event (-1 before the first pop) — the
    #: earliest instant a new event may be scheduled at
    last_pop_ns: int = -1
    #: lifetime count of popped events (profiling signal)
    popped: int = 0

    @classmethod
    def initial(cls, config: SimConfig, source: PacketSource) -> "SimState":
        """Fresh pre-run state for *config* and *source*."""
        n_cores = config.num_cores
        return cls(
            now_ns=0,
            next_arrival=0,
            drained=False,
            core_busy=[False] * n_cores,
            core_last_service=[-1] * n_cores,
            core_speed=[1.0] * n_cores,
            core_current_pkt=[-1] * n_cores,
            killed_pkts=set(),
            flow_last_core=[-1] * source.num_flows,
            flow_migrated=np.zeros(source.num_flows, dtype=bool),
            queues=QueueBank(config.num_cores, config.queue_capacity),
            metrics=SimMetrics(len(config.services), config.num_cores),
            reorder=ReorderDetector(),
            departures=[],
            drop_records=[],
        )

    def push(self, time_ns: int, payload: Any) -> None:
        """Schedule *payload* at *time_ns*.

        Scheduling into the past (before the last popped event) is a
        causality violation and raises :class:`SimulationError`.
        """
        if time_ns < self.last_pop_ns:
            raise SimulationError(
                f"event scheduled at {time_ns} ns, before current time "
                f"{self.last_pop_ns} ns"
            )
        heappush(self.heap, (time_ns, self.seq, payload))
        self.seq += 1


# ----------------------------------------------------------------------
def _config_fingerprint(config: SimConfig) -> str:
    svc = ",".join(
        f"{config.services[s].base_ns}+{config.services[s].per_64b_ns}"
        for s in range(len(config.services))
    )
    return (
        f"cores={config.num_cores};cap={config.queue_capacity};"
        f"fm={config.fm_penalty_ns};cc={config.cc_penalty_ns};"
        f"drain={config.drain_ns};lat={int(config.collect_latencies)};"
        f"dep={int(config.record_departures)};svc=[{svc}]"
    )


@dataclass(frozen=True)
class Checkpoint:
    """A paused run, serialized: resume it with :meth:`SimKernel.resume`.

    The ``blob`` pickles ``(SimState, scheduler, injector)`` in one
    object graph; config and workload are validated by fingerprint at
    resume time rather than stored, and resume regenerates the packet
    stream from the workload.  ``to_bytes``/``from_bytes`` give a
    file-ready wire form.
    """

    version: int
    time_ns: int
    blob: bytes
    config_fingerprint: str
    workload_fingerprint: str

    def to_bytes(self) -> bytes:
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "Checkpoint":
        # on empty, truncated or foreign bytes pickle raises
        # UnpicklingError, EOFError, AttributeError, ImportError,
        # IndexError, "but not necessarily limited to" those (its docs)
        try:
            obj = pickle.loads(raw)
        except Exception as exc:
            raise SimulationError(
                f"not a simulation checkpoint: {type(exc).__name__}: {exc}"
            ) from exc
        if not isinstance(obj, cls):
            raise SimulationError(
                f"not a simulation checkpoint: {type(obj).__name__}"
            )
        if obj.version != CHECKPOINT_VERSION:
            raise SimulationError(
                f"checkpoint version {obj.version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        return obj


# ----------------------------------------------------------------------
def _no_timed_handler(event, t_ns):  # pragma: no cover - defensive
    raise SimulationError(
        f"timed event {event!r} at {t_ns} ns but no injector is attached"
    )


class SimKernel:
    """Steppable network-processor simulation over an explicit state.

    Lifecycle: construct (fresh state, scheduler bound to the queue
    bank) → optionally :meth:`attach_probe` / :meth:`attach_injector`
    → any mix of :meth:`step` / :meth:`run_until` / :meth:`run` →
    :class:`~repro.sim.metrics.SimReport`.  :meth:`checkpoint` may be
    called between advances; :meth:`resume` restores one.

    *workload* may be a :class:`~repro.sim.workload.Workload` (wrapped
    in a whole-run :class:`~repro.sim.source.MaterializedSource`) or
    any :class:`~repro.sim.source.PacketSource`.  A source argument is
    cloned, so one source object can seed any number of kernels.

    The kernel itself satisfies the sampler view protocol (``queues``,
    ``metrics``, ``scheduler``, ``reorder``, ``injector`` attributes):
    it passes itself to the probe at every sample.
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler: Scheduler,
        workload: Workload | PacketSource,
        *,
        vectorized: bool = True,
        state: SimState | None = None,
        _resumed: bool = False,
    ) -> None:
        if isinstance(workload, Workload):
            source = MaterializedSource(workload)
        elif isinstance(workload, PacketSource):
            source = workload.clone()
        else:
            raise ConfigError(
                f"workload must be a Workload or PacketSource, "
                f"got {type(workload).__name__}"
            )
        if source.num_services > len(config.services):
            raise ConfigError(
                f"workload uses {source.num_services} services but the "
                f"config defines only {len(config.services)}"
            )
        self.config = config
        self.scheduler = scheduler
        self.source = source
        self._chunks: deque[WorkloadChunk] = deque()
        self._exhausted = False
        #: live arrival window (consecutive un-retired chunks)
        self.window: WorkloadChunk = empty_chunk(0)
        self.state = state if state is not None else SimState.initial(config, source)
        self.injector = None
        self.probe = None
        self._finished = False
        self._begin = None
        self._complete_until = None
        self._wl_fp: str | None = None
        #: egress log: a departure is the row ``(pkt, depart_ns)``, a
        #: drop ``(~pkt, target core)``, flattened in accounting order;
        #: :meth:`_settle` applies and empties it.  Rows index the live
        #: window, so it is settled before every slide, and it is empty
        #: between advances (never checkpointed)
        self._log: list[int] = []
        #: the vectorized fast path (planned columns + the span drain)
        #: is on iff requested and the scheduler actually overrides
        #: assign_batch (results are bit-identical either way — the
        #: flag selects the scalar oracle for equivalence tests and
        #: scalar-baseline benchmarks, and deliberately does not enter
        #: the config fingerprint)
        self.vectorized = bool(vectorized)
        self._batch_on = self.vectorized and (
            type(scheduler).assign_batch is not Scheduler.assign_batch
        )
        # planned core_of column: local-index span [_col_lo, _col_hi)
        # of the current window, valid while the scheduler's map_epoch
        # equals _col_epoch.  Never checkpointed — replanning is
        # idempotent by the assign_batch contract.
        self._col: list[int] | None = None
        self._col_arr: np.ndarray | None = None
        self._col_lo = 0
        self._col_hi = 0
        self._col_epoch = -1
        #: nominal service-time column for the live window (set by
        #: :meth:`_activate`, consumed by the span drain)
        self._nominal: np.ndarray | None = None
        #: batched span drain (runs only on the vectorized path)
        self._span = SpanDriver()
        #: cumulative wall-clock ns spent planning columns
        #: (:meth:`_plan_column`) — the "plan" leg of the span-drain
        #: phase breakdown in :attr:`span_stats`
        self.plan_ns = 0
        if not _resumed:
            # a restored scheduler is already bound to the restored
            # queue bank (shared pickle graph); re-binding would reset
            # its placement state
            scheduler.bind(self.state.queues)

    # -- sampler view protocol -----------------------------------------
    @property
    def queues(self) -> QueueBank:
        return self.state.queues

    @property
    def metrics(self) -> SimMetrics:
        """The run's metrics, settled up to the current instant."""
        self._settle()
        return self.state.metrics

    @property
    def reorder(self) -> ReorderDetector:
        """The reorder detector, settled up to the current instant."""
        self._settle()
        return self.state.reorder

    @property
    def events_popped(self) -> int:
        """Heap events popped so far (profiling signal)."""
        return self.state.popped

    @property
    def now_ns(self) -> int:
        return self.state.now_ns

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def arrivals_pending(self) -> bool:
        """An undispatched arrival exists (may pull a source chunk to
        find out — deterministic and idempotent)."""
        return self._peek_arrival_ns() is not None

    # -- observers -----------------------------------------------------
    def attach_probe(self, probe) -> None:
        """Sample the run with *probe* from the next arrival on.

        *probe* is a :class:`repro.obs.TelemetryProbe` (or anything with
        its ``maybe_sample(t_ns, view)`` / ``period_ns`` protocol).  The
        kernel passes itself as the view, so samplers see the scheduler,
        reorder detector and injector too.  A probe may be attached
        between advances; the drain phase steps at its period.
        """
        if probe is None:
            return
        if self.probe is not None:
            raise SimulationError("a kernel takes at most one probe")
        self.probe = probe

    def attach_injector(self, injector, *, resumed: bool = False) -> None:
        """Bind a :class:`repro.faults.FaultInjector` to this run.

        The injector validates its schedule against the config and
        pushes its timed events into the heap (skipped on resume — they
        are already in the restored heap); the compiled completion loop
        then hands each one to ``injector.apply``.
        """
        if injector is None:
            return
        if self.injector is not None:
            raise SimulationError("a kernel takes at most one injector")
        injector.bind(self, schedule_events=not resumed)
        self.injector = injector
        # recompile: a loop compiled before the attach has no handler
        self._begin = None
        self._complete_until = None

    # -- the sliding arrival window ------------------------------------
    def _min_live_pkt(self) -> int:
        """Smallest global packet index the run can still touch: the
        next arrival, any packet in service, any queued packet (after a
        fault reassignment queue order is no longer index order, so the
        minimum is scanned, not peeked)."""
        st = self.state
        lo = st.next_arrival
        for pkt in st.core_current_pkt:
            if 0 <= pkt < lo:
                lo = pkt
        for items in st.queues.items:
            if items:
                m = min(items)
                if m < lo:
                    lo = m
        return lo

    def _pull_chunk(self) -> bool:
        """Append the source's next chunk to the window (retiring fully
        dead leading chunks first); False when the source is exhausted.
        Invalidates the compiled hot loop — it binds the old arrays.
        """
        if self._exhausted:
            return False
        # log rows index the current window
        self._settle()
        chunk = self.source.next_chunk()
        if chunk is None:
            self._exhausted = True
            return False
        chunks = self._chunks
        retired = False
        if chunks:
            lo = self._min_live_pkt()
            while chunks and chunks[0].end <= lo:
                chunks.popleft()
                retired = True
        win = self.window
        chunks.append(chunk)
        if not retired and len(win) and win.base == chunks[0].base:
            # nothing retired: extend the standing window with the one
            # new chunk instead of re-concatenating every live chunk
            self.window = concat_chunks([win, chunk])
        else:
            self.window = concat_chunks(list(chunks))
        self._begin = None
        self._complete_until = None
        self._nominal = None
        self._col = None
        self._col_arr = None
        self._col_lo = self._col_hi = 0
        self._col_epoch = -1
        return True

    def _plan_column(self, li: int) -> None:
        """(Re)compute the planned ``core_of`` column for the window
        suffix starting at local index *li*, under the scheduler's
        current tables; stamps the column with the post-plan
        ``map_epoch`` (planning itself must not self-invalidate)."""
        t0 = time.perf_counter_ns()
        sched = self.scheduler
        win = self.window
        hi = len(win)
        if hi > li + _PLAN_SPAN:
            hi = li + _PLAN_SPAN
        out = sched.assign_batch(
            win.flow_hash[li:hi],
            win.service_id[li:hi],
            win.flow_id[li:hi],
            win.arrival_ns[li:hi],
        )
        if out is None:
            self._col = []
            self._col_arr = None
            self._col_hi = li
        else:
            self._col = out.tolist()
            # the span drain consumes the un-unboxed array directly
            self._col_arr = out
            self._col_hi = li + len(self._col)
        self._col_lo = li
        self._col_epoch = sched.map_epoch
        self.plan_ns += time.perf_counter_ns() - t0

    def _peek_arrival_ns(self) -> int | None:
        """Arrival time of the next undispatched packet, pulling chunks
        as needed; None when the source has no packets left."""
        st = self.state
        while True:
            win = self.window
            if st.next_arrival - win.base < len(win):
                return int(win.arrival_ns[st.next_arrival - win.base])
            if not self._pull_chunk():
                return None

    # -- activation: compile the hot loop ------------------------------
    def _activate(self) -> None:
        """Compile ``begin`` / ``complete_until`` over the state and the
        current window.

        Closures capture the state *containers* (mutated in place), so
        the per-packet path touches only locals — the original loop's
        no-attribute-lookup property; packet columns are indexed at
        ``pkt - base`` within the window.  Re-run after :meth:`resume`,
        a window slide or :meth:`attach_injector` to re-close over the
        current containers and injector.
        """
        cfg = self.config
        st = self.state
        win = self.window
        services = cfg.services
        base_ns = [services[s].base_ns for s in range(len(services))]
        per64_ns = [services[s].per_64b_ns for s in range(len(services))]
        fm_pen = cfg.fm_penalty_ns
        cc_pen = cfg.cc_penalty_ns
        core_busy = st.core_busy
        core_last_service = st.core_last_service
        core_speed = st.core_speed
        core_current_pkt = st.core_current_pkt
        killed_pkts = st.killed_pkts
        flow_last_core = st.flow_last_core
        flow_migrated = st.flow_migrated
        queues = st.queues
        metrics = st.metrics
        base = win.base
        # nominal per-packet service time (eq. 3 without penalties),
        # vectorized once per window: base_ns[sid] + round(p64*size/64).
        # p64*size is exact in int64 and /64.0 is an exact float scale,
        # so np.rint matches Python round() bit-for-bit.  Kept as an
        # int64 array (not a list) so resident size stays O(window)
        # bytes, matching the other window columns.
        if len(win):
            sids = win.service_id
            nominal = np.asarray(base_ns, dtype=np.int64)[sids] + np.rint(
                np.asarray(per64_ns, dtype=np.float64)[sids]
                * win.size_bytes.astype(np.float64)
                / 64.0
            ).astype(np.int64)
        else:
            nominal = np.empty(0, dtype=np.int64)
        self._nominal = nominal  # consumed by the span drain
        # zero-copy element reads: indexing a memoryview of a window
        # column yields a Python int at well under ndarray.item's cost
        svc_at = memoryview(win.service_id)
        flow_at = memoryview(win.flow_id)
        proc_at = memoryview(nominal)
        busy_ns = metrics.busy_ns_per_core
        # a departure or drop is one egress-log row, settled in batches
        # (see _settle)
        log_append = self._log.append
        # timed events need the kernel: capturing it is a reference
        # cycle while the run is live, which finalize() breaks
        apply_timed = (
            self._apply_timed if self.injector is not None else _no_timed_handler
        )
        # the bank's per-core deques and occ list: the loop tests and
        # pops a deque itself (both lists are mutated in place for a
        # bank's whole lifetime, so the bindings stay valid)
        q_items = queues.items
        occ = queues.occ
        # the completion loop works on the heap list with its
        # bookkeeping batched in locals
        heap = st.heap

        def begin(core: int, pkt: int, t_ns: int) -> int:
            """Begin service of packet *pkt* (global index) on *core* at
            *t_ns*; returns the completion instant, which the caller
            schedules."""
            li = pkt - base
            sid = svc_at[li]
            fid = flow_at[li]
            t_proc = proc_at[li]
            last = flow_last_core[fid]
            if last >= 0 and last != core:
                t_proc += fm_pen
                metrics.flow_migration_events += 1
                flow_migrated[fid] = True
            flow_last_core[fid] = core
            if core_last_service[core] != sid:
                if core_last_service[core] >= 0:
                    t_proc += cc_pen
                    metrics.cold_cache_events += 1
                core_last_service[core] = sid
            speed = core_speed[core]
            if speed != 1.0:  # degraded core (repro.faults CoreSlowdown)
                t_proc = int(round(t_proc * speed))
            core_busy[core] = True
            core_current_pkt[core] = pkt
            busy_ns[core] += t_proc
            return t_ns + t_proc

        def complete_until(horizon_ns: int) -> None:
            """Drain heap events with time <= horizon in time order.

            A departure is one egress-log row.  A completion whose core
            holds queued work starts the next packet by replacing its
            own heap entry (one ``heapreplace``; completions land at or
            after the pop, so no causality check is needed).  The
            heap's popped/last-pop/seq bookkeeping is batched in locals
            and written back to the state before any timed-event
            dispatch — after settling the books, so an injector that
            pushes events or accounts drops sees exact state — and at
            exit.
            """
            s = st.seq
            n_popped = 0
            t_done = -1
            while heap:
                t, _, payload = heap[0]
                if t > horizon_ns:
                    break
                # only a popped event moves the causality floor
                t_done = t
                n_popped += 1
                core, pkt = payload
                if core < 0:  # timed platform event, not a completion
                    heappop(heap)
                    st.popped += n_popped
                    st.last_pop_ns = t_done
                    st.seq = s
                    n_popped = 0
                    apply_timed(pkt, t_done)
                    s = st.seq
                    continue
                if killed_pkts and pkt in killed_pkts:
                    heappop(heap)
                    killed_pkts.discard(pkt)  # died with its core
                    continue
                log_append(pkt)
                log_append(t_done)
                qi = q_items[core]
                if qi:  # a core holding queued work is up
                    occ[core] -= 1
                    nxt = qi.popleft()
                    heapreplace(heap, (begin(core, nxt, t_done), s, (core, nxt)))
                    s += 1
                else:
                    heappop(heap)
                    core_busy[core] = False
                    core_current_pkt[core] = -1
            if n_popped:
                st.popped += n_popped
                st.last_pop_ns = t_done
                st.seq = s

        self._begin = begin
        self._complete_until = complete_until

    @property
    def span_stats(self) -> dict[str, int]:
        """Batched-drain counters (all zero on the scalar path):
        spans committed, attempts bailed to the scalar path, packets
        dispatched through committed spans, and the wall-clock phase
        split — ``plan_ns`` (column planning), ``drain_ns`` (phase-1
        per-core simulation) and ``commit_ns`` (phase-2 state commit
        including the scheduler's span commit)."""
        s = self._span
        return {
            "spans_committed": s.spans_committed,
            "spans_bailed": s.spans_bailed,
            "packets_spanned": s.packets_spanned,
            "plan_ns": self.plan_ns,
            "drain_ns": s.drain_ns,
            "commit_ns": s.commit_ns,
        }

    def start_packet(self, core: int, pkt: int, t_ns: int) -> None:
        """Begin service of *pkt* on *core* (injector reassignment path)."""
        if self._begin is None:
            self._activate()
        self.state.push(self._begin(core, pkt, t_ns), (core, pkt))

    def _apply_timed(self, event, t_ns: int) -> None:
        """Hand a timed heap event to the injector, books settled first:
        its fault drops account straight into the detector and metrics."""
        self._settle()
        self.injector.apply(self, event, t_ns)

    # -- settling the books ----------------------------------------------
    def _settle(self) -> None:
        """Bring the metrics, the reorder detector and the records up to
        the current instant.

        The scalar loop only records its departures and drops, one
        egress-log row each; settling books the log with :meth:`_book`.

        It runs at every segment reload of the arrival loop, before a
        span attempt, before a timed event reaches the injector, before
        a window slide, at the end of :meth:`run_until` and of the
        drain, in :meth:`checkpoint` and :meth:`finalize`, and whenever
        :attr:`metrics` or :attr:`reorder` is read (which is how probe
        samplers see a run).
        """
        log = self._log
        if not log:
            return
        rows = np.fromiter(log, np.int64, len(log)).reshape(-1, 2)
        log.clear()
        key, val = rows[:, 0], rows[:, 1]
        drop = key < 0
        li = np.where(drop, ~key, key) - self.window.base
        if drop.any():
            dep = ~drop
            self._book(li, drop, li[dep], val[dep], li[drop], val[drop])
        else:
            self._book(li, drop, li, val, li[:0], val[:0])

    def _book(self, li, drop, dep_li, dep_t, drop_li, drop_core) -> None:
        """Book a non-empty run of egress events.

        ``li`` holds the events' rows in the live window in accounting
        order and ``drop`` marks the drops among them; ``dep_li`` and
        ``dep_t`` are the departures' rows and instants, ``drop_li`` and
        ``drop_core`` the drops' rows and the cores they were offered
        to, each stream in its order within ``li``.  Booking is one
        :meth:`~repro.sim.reorder.ReorderDetector.account_batch` call
        over ``li``, latencies as one vector subtraction (one int64
        chunk of :attr:`SimMetrics.latencies_ns`), the departure
        and drop counters, and the departure/drop records when they are
        recorded; the result equals per-event bookkeeping field for
        field.  The scalar loop's :meth:`_settle` and the span commit
        both book through here.
        """
        st = self.state
        win = self.window
        m = st.metrics
        flow_col = win.flow_id
        seq_col = win.seq
        st.reorder.account_batch(flow_col[li], seq_col[li], drop)
        record = self.config.record_departures
        if dep_t.size:
            m.departed += int(dep_t.size)
            m.last_depart_ns = int(dep_t[-1])
            if self.config.collect_latencies:
                m.latencies_ns.append(dep_t - win.arrival_ns[dep_li])
            if record:
                st.departures.extend(
                    zip(
                        flow_col[dep_li].tolist(),
                        seq_col[dep_li].tolist(),
                        dep_t.tolist(),
                    )
                )
        n_drop = int(drop_li.size)
        if n_drop:
            m.dropped += n_drop
            dps = m.dropped_per_service
            counts = np.bincount(win.service_id[drop_li], minlength=len(dps))
            for sid, n in enumerate(counts.tolist()):
                if n:
                    dps[sid] += n
            down = st.queues.cores_down()
            if down:  # offered to a dead core's queue: a fault drop
                m.fault_dropped += int(np.count_nonzero(np.isin(drop_core, down)))
            if record:
                st.drop_records.extend(
                    zip(
                        flow_col[drop_li].tolist(),
                        seq_col[drop_li].tolist(),
                        win.arrival_ns[drop_li].tolist(),
                    )
                )

    # -- advancing the run ---------------------------------------------
    def run_until(self, t_ns: int) -> None:
        """Advance the run to *t_ns*.

        Dispatches every arrival with ``arrival_ns <= t_ns`` — each
        preceded by the completions and timed events due by then, in
        strict time order, pulling source chunks as the window runs out
        — then drains remaining heap events up to *t_ns*.  Splitting a
        run across any sequence of horizons yields state (and
        ultimately a report) identical to one uninterrupted
        :meth:`run`.
        """
        if self._finished:
            raise SimulationError("kernel already finished")
        st = self.state
        if t_ns < st.now_ns:
            raise SimulationError(
                f"run_until({t_ns}) is behind current time {st.now_ns}"
            )
        cfg = self.config
        sched = self.scheduler
        n_cores = cfg.num_cores
        cap = cfg.queue_capacity
        core_busy = st.core_busy
        queues = st.queues
        # the enqueue below is QueueBank.offer inlined: occ[core] is
        # the queue length while up and cap while down, so one test
        # covers full and down (see repro.sim.queues)
        q_items = queues.items
        occ = queues.occ
        metrics = st.metrics
        gen_per_service = metrics.generated_per_service
        ev_heap = st.heap  # mutated in place; identity is stable
        log_append = self._log.append
        batch_on = self._batch_on
        # every plan rides the span drain
        span = self._span if batch_on else None
        sel = sched.select_core
        commit = sched.batch_commit
        while True:
            if self._begin is None:
                self._activate()
            complete_until = self._complete_until
            begin = self._begin
            probe = self.probe
            sample = probe.maybe_sample if probe is not None else None
            win = self.window
            base = win.base
            arrival = win.arrival_ns
            n_local = arrival.shape[0]
            li = li0 = st.next_arrival - base
            # next local index at which to attempt a batched span drain
            # (-1 disables).  A bailed attempt costs a full interpreted
            # phase 1, so repeated bails back the retry distance off
            # exponentially; the first win snaps it back to RETRY_STRIDE.
            span_li = li if span is not None else -1
            span_stride = RETRY_STRIDE
            # column-plan locals mirror the kernel attrs; they diverge
            # only through _plan_column, which updates both
            col = self._col
            cl = self._col_lo
            ch = self._col_hi
            col_epoch = self._col_epoch
            # arrival columns are unboxed to plain lists one bounded
            # segment at a time: list indexing beats per-packet numpy
            # scalar conversion several times over
            seg_lo = 0
            seg_hi = li  # force a segment load on the first iteration
            arr_seg = svc_seg = flow_seg = hash_seg = ()
            try:
                while li < n_local:
                    if li == span_li:
                        # a span books its egress after the log's
                        self._settle()
                        li2 = span.attempt(self, li, t_ns)
                        # the attempt replans/consumes the column plan:
                        # resync the mirrored locals unconditionally
                        col = self._col
                        cl = self._col_lo
                        ch = self._col_hi
                        col_epoch = self._col_epoch
                        if li2 > li:
                            li = li2
                            seg_hi = li  # stale: force a segment reload
                            span_li = li  # a win: try to continue batched
                            span_stride = RETRY_STRIDE
                            continue
                        span_li = li + span_stride
                        if span_stride < _MAX_RETRY_STRIDE:
                            span_stride *= 2
                    if li >= seg_hi:
                        self._settle()
                        seg_lo = li
                        seg_hi = li + _SEGMENT
                        if seg_hi > n_local:
                            seg_hi = n_local
                        arr_seg = arrival[seg_lo:seg_hi].tolist()
                        svc_seg = win.service_id[seg_lo:seg_hi].tolist()
                        flow_seg = win.flow_id[seg_lo:seg_hi].tolist()
                        hash_seg = win.flow_hash[seg_lo:seg_hi].tolist()
                    k = li - seg_lo
                    t = arr_seg[k]
                    if t > t_ns:
                        break
                    if ev_heap and ev_heap[0][0] <= t:
                        complete_until(t)
                    if sample is not None:
                        # a sampler that reads the books settles them
                        sample(t, self)
                    metrics.generated += 1
                    sid = svc_seg[k]
                    gen_per_service[sid] += 1
                    if batch_on:
                        # any table mutation since the plan — by the
                        # completions/timed events just drained, or by a
                        # previous packet's scalar fallback — bumped the
                        # epoch: replan the remaining suffix.  Also
                        # replan on walking off a non-empty span.
                        if sched.map_epoch != col_epoch or (
                            li >= ch and li > cl
                        ):
                            self._plan_column(li)
                            col = self._col
                            cl = self._col_lo
                            ch = self._col_hi
                            col_epoch = self._col_epoch
                        if cl <= li < ch:
                            core = col[li - cl]
                            if commit is not None:
                                commit(flow_seg[k], hash_seg[k])
                        else:
                            core = sel(flow_seg[k], sid, hash_seg[k], t)
                    else:
                        core = sel(flow_seg[k], sid, hash_seg[k], t)
                    if not 0 <= core < n_cores:
                        raise SimulationError(
                            f"{sched.name} returned core {core} of {n_cores}"
                        )
                    if core_busy[core]:
                        n = occ[core]
                        if n < cap:
                            q_items[core].append(base + li)
                            occ[core] = n + 1
                        else:  # full, or black-holed by a dead core
                            log_append(~(base + li))
                            log_append(core)
                    else:
                        pkt = base + li
                        s = st.seq
                        heappush(ev_heap, (begin(core, pkt, t), s, (core, pkt)))
                        st.seq = s + 1
                    li += 1
            finally:
                st.next_arrival = base + li
                if li > li0:
                    st.last_arrival_ns = int(arrival[li - 1])
            if li < n_local:
                break  # the next arrival is beyond the horizon
            # release the compiled closures and unboxed segments before
            # sliding: they bind the old window's arrays (and its
            # service-time column), and holding them across the pull
            # would double the resident window at the peak
            complete_until = begin = sample = None
            arr_seg = svc_seg = flow_seg = hash_seg = ()
            if not self._pull_chunk():
                break  # source exhausted: every arrival dispatched
        if self._complete_until is None:  # pragma: no cover - defensive
            self._activate()
        self._complete_until(t_ns)
        self._settle()
        st.now_ns = t_ns

    def next_event_ns(self) -> int | None:
        """Time of the next pending instant (arrival or heap event),
        or None when nothing is left.  May pull a source chunk to see
        the next arrival (deterministic and idempotent)."""
        heap = self.state.heap
        nxt = heap[0][0] if heap else None
        t_arr = self._peek_arrival_ns()
        if t_arr is not None:
            nxt = t_arr if nxt is None else min(nxt, t_arr)
        return nxt

    def step(self) -> int | None:
        """Advance to the next event instant and process everything due
        at it; returns that time, or None when the run is quiescent.

        Note: unbounded stepping runs past the drain bound the full
        :meth:`run` would stop at — clamp against
        ``last_arrival + config.drain_ns`` to reproduce ``run()``'s
        abandonment of late in-flight packets.
        """
        nxt = self.next_event_ns()
        if nxt is None:
            return None
        self.run_until(nxt)
        return nxt

    # -- drain + report -------------------------------------------------
    def _drain(self) -> None:
        """Serve queued work after the last arrival (bounded).

        With a probe attached the drain advances one probe period at a
        time so time series keep covering departures after the last
        arrival; an empty heap means nothing is in flight (a
        non-empty queue implies a busy core, which implies a pending
        completion), so further boundaries would only repeat a frozen
        state.
        """
        if self._complete_until is None:
            self._activate()
        cfg = self.config
        st = self.state
        heap = st.heap
        complete_until = self._complete_until
        probe = self.probe
        last_arrival_ns = st.last_arrival_ns
        drain_end = last_arrival_ns + cfg.drain_ns
        if probe is not None and cfg.drain_ns > 0:
            step = probe.period_ns
            t = last_arrival_ns + step
            while t <= st.now_ns:  # resumed mid-drain: catch up first
                t += step
            # stop early when the next heap event is past the drain
            # bound: nothing can change before drain_end
            while t < drain_end and heap and heap[0][0] <= drain_end:
                complete_until(t)
                probe.maybe_sample(t, self)
                t += step
        if drain_end > st.now_ns:
            complete_until(drain_end)
            st.now_ns = drain_end
        if probe is not None:
            probe.maybe_sample(max(drain_end, st.now_ns), self)
        self._settle()
        st.drained = True
        # anything still in flight past the drain bound is abandoned
        # unscored (counted as neither departed nor dropped)

    def run_arrivals(self) -> int:
        """Advance through every remaining arrival (no drain).

        Returns the last arrival instant dispatched so far — the
        sharded coordinator gathers these across shards to agree on the
        *global* last arrival before anyone drains (see :meth:`finish`).
        """
        if self._finished:
            raise SimulationError("kernel already finished")
        st = self.state
        while self._peek_arrival_ns() is not None:
            # the peek pulled the window forward; run to its last
            # arrival (run_until keeps pulling if equal-time arrivals
            # straddle the chunk boundary)
            horizon = int(self.window.arrival_ns[-1])
            self.run_until(max(horizon, st.now_ns))
        return st.last_arrival_ns

    def finish(self, last_arrival_ns: int | None = None) -> SimReport:
        """Drain and finalize (arrivals must be exhausted by the caller).

        *last_arrival_ns* overrides the drain horizon's anchor when it
        is later than this kernel's own last arrival: a shard of a
        partitioned run stops receiving packets before the full system
        does, but must keep draining until ``global_last + drain_ns``
        so its departures are scored over the same window a
        single-process run would use.
        """
        st = self.state
        if last_arrival_ns is not None and int(last_arrival_ns) > st.last_arrival_ns:
            st.last_arrival_ns = int(last_arrival_ns)
        self._drain()
        return self.finalize()

    def run(self) -> SimReport:
        """Advance to completion (arrivals, then drain) and report.

        Continues from wherever previous ``step``/``run_until`` calls —
        or a restored checkpoint — left the state.  Advances one window
        at a time, so a streamed source never materializes beyond the
        live chunks.
        """
        self.run_arrivals()
        return self.finish()

    def finalize(self) -> SimReport:
        """Freeze the metrics into the immutable report (once).

        Drops the compiled closures: with an injector attached they
        close over the kernel, and nothing else in a finished run points
        back at it.
        """
        if self._finished:
            raise SimulationError("kernel already finished")
        self._settle()
        self._finished = True
        self._begin = self._complete_until = None
        st = self.state
        return st.metrics.finalize(
            duration_ns=self.source.duration_ns,
            out_of_order=st.reorder.out_of_order,
            scheduler_name=self.scheduler.name,
            scheduler_stats=self.scheduler.stats(),
            migrated_flows=int(st.flow_migrated.sum()),
            departures=tuple(st.departures),
            drop_records=tuple(st.drop_records),
        )

    # -- checkpoint / resume --------------------------------------------
    def _workload_fp(self) -> str:
        if self._wl_fp is None:
            self._wl_fp = self.source.fingerprint()
        return self._wl_fp

    def checkpoint(self) -> Checkpoint:
        """Serialize the paused run (between advances) for later resume.

        Probes are *not* captured — re-attach fresh ones at resume; the
        time series restarts but the simulation outcome is unaffected
        (sampling never mutates run state).  Neither is the source or
        its window: resume regenerates them from the workload.
        """
        if self._finished:
            raise SimulationError("cannot checkpoint a finished run")
        self._settle()  # a no-op between advances; the log is not state
        payload = (self.state, self.scheduler, self.injector)
        try:
            blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise SimulationError(
                f"run state is not serializable: {exc}"
            ) from exc
        return Checkpoint(
            version=CHECKPOINT_VERSION,
            time_ns=self.state.now_ns,
            blob=blob,
            config_fingerprint=_config_fingerprint(self.config),
            workload_fingerprint=self._workload_fp(),
        )

    @classmethod
    def resume(
        cls,
        checkpoint: Checkpoint,
        config: SimConfig,
        workload: Workload | PacketSource,
        *,
        probe=None,
        vectorized: bool = True,
    ) -> "SimKernel":
        """Rebuild a kernel from *checkpoint* and continue the run.

        *vectorized* need not match the checkpointing kernel's setting:
        planned columns and span-drain state are never serialized and
        every scheduler's batch bookkeeping is committed per dispatched
        packet, so either path resumes to the same report (both
        directions are pinned by ``tests/sim/test_span_parity.py``).

        *config* and *workload* must describe the packet sequence the
        checkpointed run used (validated by fingerprint — materialized
        and streamed builds of the same spec share it, so a streamed
        checkpoint resumes against a materialized workload and vice
        versa).  The window is rebuilt by pulling a fresh clone of the
        source (and immediately retiring dead chunks) up to the saved
        position: O(position) generation at O(chunk) memory.  The
        scheduler and injector come back from the checkpoint with their
        state intact.
        """
        if checkpoint.version != CHECKPOINT_VERSION:
            raise SimulationError(
                f"checkpoint version {checkpoint.version} unsupported "
                f"(expected {CHECKPOINT_VERSION})"
            )
        if _config_fingerprint(config) != checkpoint.config_fingerprint:
            raise SimulationError(
                "checkpoint was taken under a different SimConfig"
            )
        if workload_fingerprint(workload) != checkpoint.workload_fingerprint:
            raise SimulationError(
                "checkpoint was taken against a different workload"
            )
        state, scheduler, injector = pickle.loads(checkpoint.blob)
        kernel = cls(
            config, scheduler, workload, state=state,
            vectorized=vectorized, _resumed=True,
        )
        # verified equal above: the next checkpoint need not regenerate
        # the stream to fingerprint it again
        kernel._wl_fp = checkpoint.workload_fingerprint
        if injector is not None:
            kernel.attach_injector(injector, resumed=True)
        if probe is not None:
            kernel.attach_probe(probe)
        return kernel
