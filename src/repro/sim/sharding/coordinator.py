"""The sharded-run coordinator: conservative-time PDES over a
persistent worker pool.

:func:`run_sharded` cuts the system with :func:`~repro.sim.sharding.
topology.plan_topology`, builds one
:class:`~repro.sim.sharding.shard.ShardSpec` per shard, keeps the
shards whose turn falls on the calling process and ships the rest,
pickled, to sticky worker slots (shard state *lives in its process*
between calls — every window goes back to the process holding the
kernel), drives the mode-appropriate protocol, and merges the
per-shard results exactly.  The caller is one of the processes that
simulate: it sends every worker its barrier message, runs its own
shards, then collects the replies.

**Cores mode** needs a single barrier: shards share no state at all, so
each dispatches every arrival independently (``run_arrivals``), the
coordinator takes the max last-arrival instant, and every shard drains
against that global horizon (``finish``) so departures are scored over
the same window a single-process run uses.

**Services mode** (LAPS) advances all shards window by window.  The
only inter-shard coupling — ``request_core()`` spilling across the
service partition — is deferred to window barriers: each
``window_step`` returns the shard's unmet requests and donatable
surplus cores, :func:`~repro.sim.sharding.mailbox.resolve_grants`
matches them globally, and the outcome is applied at the next barrier
before any further simulated time passes.  Fault routing: *platform*
events (core fail/recover/slowdown, global core ids) are broadcast to
every shard — only the owning shard's allocator reacts beyond marking
the core; *traffic* events are applied to the full source **before**
partitioning, so each shard's slice is cut from the already-transformed
stream.
"""

from __future__ import annotations

import copy
import itertools
import os
from dataclasses import dataclass
from dataclasses import replace as dc_replace

from repro import units
from repro.errors import ConfigError, SimulationError
from repro.faults import DRAIN_POLICIES, FaultSchedule, TrafficTransformSource
from repro.net.service import ServiceSet
from repro.sim.config import SimConfig
from repro.sim.metrics import SimReport
from repro.sim.sharding.aggregate import merge_shard_results
from repro.sim.sharding.mailbox import CoreGrant, resolve_grants
from repro.sim.sharding.partition import CorePartitionSource, ServiceFilterSource
from repro.sim.sharding.shard import Shard, ShardSpec
from repro.sim.sharding.topology import ShardTopology, plan_topology
from repro.sim.source import MaterializedSource, PacketSource
from repro.sim.workload import Workload
from repro.util.parallel import default_jobs, in_pool_worker, shared_pool

__all__ = ["ShardedRun", "run_sharded", "sharded_fault_args", "DEFAULT_WINDOW_NS"]

#: services-mode barrier interval when the caller does not pick one:
#: 1 ms of simulated time — two orders of magnitude above per-packet
#: service times (so barrier overhead amortises) yet short against the
#: idle threshold that makes cores donatable
DEFAULT_WINDOW_NS = units.ms(1)

#: tokens distinguishing one run's resident shards from a previous
#: run's in the same (reused) worker processes
_TOKENS = itertools.count()


# ----------------------------------------------------------------------
# worker-side entry point (module-level: it must pickle by name).  A
# worker keeps its shards in this registry between calls; entries of
# an older run are evicted the first time a new run builds into it.
# ----------------------------------------------------------------------
_RESIDENT: dict[tuple[str, int], Shard] = {}


def _w_call(arg) -> list:
    """One barrier on one worker: build the shards *specs* names (the
    run's first barrier only), then run *method* on each shard this
    worker holds, in shard order."""
    token, specs, method, payloads = arg
    if specs:
        for key in [k for k in _RESIDENT if k[0] != token]:
            del _RESIDENT[key]
        for spec in specs:
            _RESIDENT[(token, spec.shard_id)] = Shard(spec)
    out = []
    for shard_id, payload in payloads:
        shard = _RESIDENT.get((token, shard_id))
        if shard is None:
            raise SimulationError(
                f"shard {shard_id} is not resident in this worker — the "
                "pool was resized or restarted mid-run"
            )
        out.append(getattr(shard, method)(payload))
    return out


# ----------------------------------------------------------------------
class _Backend:
    """Where the shards live, over *processes* simulating processes.

    The calling process counts as one of them: shard ``k`` runs in it
    when ``k % processes == 0`` and on pool slot ``k % processes - 1``
    otherwise — the sticky routing :meth:`ProcessPool.scatter`
    guarantees is what keeps every barrier call landing on the process
    that holds the shard's kernel.  With one process (``workers=1``, or
    nested in a pool worker, where spawning children is impossible)
    every shard is the caller's and no pool is used.

    At each barrier the caller sends every slot one message carrying
    all of that slot's shards, simulates its own shards, then collects
    the replies.  The first barrier also builds the shards — the specs
    ride in its messages — so no process waits on another's build.
    """

    def __init__(self, specs: list[ShardSpec], processes: int) -> None:
        self._local = [s for s in specs if s.shard_id % processes == 0]
        self._remote: dict[int, list[ShardSpec]] = {}
        for s in specs:
            if s.shard_id % processes:
                self._remote.setdefault(s.shard_id % processes - 1, []).append(s)
        self._pool = shared_pool(processes - 1) if self._remote else None
        self._token = f"{os.getpid()}:{next(_TOKENS)}"
        self._shards: list[Shard] | None = None

    def call_all(self, method: str, payloads: list) -> list:
        """``shard.method(payloads[k])`` on every shard ``k``; the
        results in shard order."""
        out: list = [None] * len(payloads)
        first = self._shards is None

        def local() -> None:
            if first:
                self._shards = [Shard(s) for s in self._local]
            for shard in self._shards:
                k = shard.spec.shard_id
                out[k] = getattr(shard, method)(payloads[k])

        if self._pool is None:
            local()
            return out
        replies = self._pool.scatter(
            [
                (slot, _w_call, (
                    self._token, specs if first else None, method,
                    [(s.shard_id, payloads[s.shard_id]) for s in specs],
                ))
                for slot, specs in self._remote.items()
            ],
            local=local,
        )
        for specs, reply in zip(self._remote.values(), replies):
            for s, value in zip(specs, reply):
                out[s.shard_id] = value
        return out


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedRun:
    """Everything a sharded run produced: the merged report plus the
    partition plan and protocol trace the manifest records."""

    report: SimReport
    topology: ShardTopology
    shard_reports: tuple[SimReport, ...]
    windows: int = 0
    grants: tuple[CoreGrant, ...] = ()
    workers: int = 1
    source_fingerprint: str | None = None

    def manifest_dict(self) -> dict:
        """The ``sharding`` block of a :class:`~repro.obs.manifest.
        RunManifest`."""
        out = self.topology.to_dict()
        out["workers"] = self.workers
        out["windows"] = self.windows
        out["cross_shard_grants"] = len(self.grants)
        if self.source_fingerprint is not None:
            out["source_fingerprint"] = self.source_fingerprint
        return out


# ----------------------------------------------------------------------
def _select_mode(scheduler) -> str:
    if hasattr(scheduler, "configure_shard"):
        return "services"
    if getattr(scheduler, "shard_static", False):
        return "cores"
    raise SimulationError(
        f"scheduler {scheduler.name!r} supports neither sharding mode: "
        "cores mode needs a statically partitionable assignment "
        "(shard_static), services mode needs the configure_shard "
        "window/mailbox protocol (LAPS).  Schedulers whose decisions "
        "read global load (fcfs, afs, flow-director, flowlet, "
        "sprinklers, adaptive-hash) cannot be partitioned without "
        "changing their results — run them single-process."
    )


def sharded_fault_args(injector) -> tuple[FaultSchedule | None, str]:
    """The ``(schedule, drain_policy)`` arguments of :func:`run_sharded`
    that stand for a single-process run's fault *injector* (``(None,
    "drop")`` without one).

    Only the injector's platform events ride along, as they do in a
    single-process run: traffic events are the workload's job.
    """
    if injector is None:
        return None, "drop"
    return injector.schedule.platform_schedule(), injector.drain_policy


def run_sharded(
    workload: Workload | PacketSource,
    scheduler,
    config: SimConfig | None = None,
    *,
    shards: int,
    workers: int = 0,
    window_ns: int | None = None,
    schedule: FaultSchedule | None = None,
    drain_policy: str = "drop",
    vectorized: bool = True,
    source_fingerprint: str | None = None,
) -> ShardedRun:
    """Run one simulation sharded *shards* ways across processes.

    *workers* bounds the number of processes that simulate, the calling
    process included (0 = ``default_jobs()``, itself overridable with
    ``REPRO_JOBS``): with ``P = min(workers, shards)``, shard ``k`` runs
    in the caller when ``k % P == 0`` and in spawned pool worker
    ``k % P - 1`` otherwise, so ``workers=2`` spawns one worker and
    ``workers=1`` (or any call made inside a pool worker) runs every
    shard inline.  Shards beyond ``P`` time-share the processes.  The
    outcome is worker-count independent: cores
    mode is bit-identical to ``simulate()`` for any shard count, and
    services mode is a deterministic function of (workload seed,
    *window_ns*, *shards*).

    *schedule* may carry both event kinds: traffic events transform the
    source before partitioning; platform events are broadcast to every
    shard.  Platform events force ``drain_policy="drop"`` — the
    reassign policy re-routes a dead core's queue through the live map,
    which in cores mode crosses the partition.

    *source_fingerprint*, when the caller has already computed it (the
    batch harness shares one fingerprint across a shard group), is
    recorded on the result; it is never recomputed here.
    """
    config = config or SimConfig()
    if shards < 1:
        raise ConfigError(f"need at least one shard, got {shards}")
    if drain_policy not in DRAIN_POLICIES:
        raise ConfigError(
            f"unknown drain policy {drain_policy!r}; "
            f"choose from {', '.join(DRAIN_POLICIES)}"
        )
    if getattr(scheduler, "is_bound", False):
        raise ConfigError(
            "run_sharded needs an unbound scheduler (each shard binds "
            "its own deep copy)"
        )

    if isinstance(workload, Workload):
        inner: PacketSource = MaterializedSource(workload)
    elif isinstance(workload, PacketSource):
        inner = workload.clone()
    else:
        raise ConfigError(
            f"workload must be a Workload or PacketSource, "
            f"got {type(workload).__name__}"
        )
    num_services = len(config.services)
    if inner.num_services > num_services:
        raise ConfigError(
            f"workload uses {inner.num_services} services but the "
            f"config defines only {num_services}"
        )

    platform_schedule: FaultSchedule | None = None
    if schedule is not None and len(schedule):
        schedule.validate_platform(config.num_cores, num_services)
        traffic = schedule.traffic_events()
        if traffic:
            inner = TrafficTransformSource(inner, FaultSchedule(traffic))
        platform_schedule = schedule.platform_schedule()
        if platform_schedule is not None and drain_policy != "drop":
            raise ConfigError(
                "sharded runs with platform fault events require "
                "drain_policy='drop': the reassign policy re-routes "
                "a failed core's queue across the partition"
            )

    mode = _select_mode(scheduler)
    window = window_ns if window_ns is not None else DEFAULT_WINDOW_NS
    if window_ns is not None and window_ns <= 0:
        raise ConfigError(f"window_ns must be positive, got {window_ns}")
    topology = plan_topology(
        mode,
        shards,
        config.num_cores,
        num_services,
        window_ns=window if mode == "services" else None,
    )
    if mode == "services":
        sched_services = getattr(
            getattr(scheduler, "config", None), "num_services", None
        )
        if sched_services is not None and sched_services != num_services:
            raise ConfigError(
                f"scheduler is configured for {sched_services} services "
                f"but the platform defines {num_services}"
            )

    specs: list[ShardSpec] = []
    for k in range(shards):
        sched_k = copy.deepcopy(scheduler)
        if mode == "cores":
            cfg_k = config
            src_k: PacketSource = CorePartitionSource(
                inner.clone(),
                scheduler,
                topology.core_groups[k],
                config.num_cores,
                config.queue_capacity,
            )
        else:
            group = topology.service_groups[k]
            local = ServiceSet(
                [
                    dc_replace(config.services[sid], service_id=i)
                    for i, sid in enumerate(group)
                ]
            )
            cfg_k = dc_replace(config, services=local)
            sched_k.configure_shard(len(group), topology.ownership(k))
            src_k = ServiceFilterSource(inner.clone(), group)
        specs.append(
            ShardSpec(
                shard_id=k,
                mode=mode,
                config=cfg_k,
                source=src_k,
                scheduler=sched_k,
                platform_schedule=platform_schedule,
                drain_policy=drain_policy,
                vectorized=vectorized,
            )
        )

    n_workers = min(workers if workers > 0 else default_jobs(), shards)
    if in_pool_worker():
        n_workers = 1
    backend = _Backend(specs, n_workers)

    grants: list[CoreGrant] = []
    windows_run = 0
    if mode == "cores":
        lasts = backend.call_all("run_arrivals", [None] * shards)
        global_last = max(lasts)
    else:
        barrier = 0
        revokes: dict[int, list[int]] = {k: [] for k in range(shards)}
        adopts: dict[int, list[tuple[int, int]]] = {k: [] for k in range(shards)}
        lasts = [0] * shards
        while True:
            advance_to = barrier + window
            payloads = [
                (barrier, revokes[k], adopts[k], advance_to)
                for k in range(shards)
            ]
            outs = backend.call_all("window_step", payloads)
            windows_run += 1
            lasts = [o["last_arrival_ns"] for o in outs]
            if all(o["exhausted"] for o in outs):
                break
            new = resolve_grants(
                [r for o in outs for r in o["requests"]],
                [of for o in outs for of in o["offers"]],
            )
            grants.extend(new)
            revokes = {k: [] for k in range(shards)}
            adopts = {k: [] for k in range(shards)}
            for g in new:
                revokes[g.donor_shard].append(g.core)
                adopts[g.recipient_shard].append(
                    (g.core, g.recipient_service)
                )
            barrier = advance_to
        global_last = max(lasts)

    results = backend.call_all("finish", [global_last] * shards)

    total = sum(r.report.generated for r in results)
    if total != inner.num_packets:
        raise SimulationError(
            f"sharded run dispatched {total} packets of "
            f"{inner.num_packets} — the partition is not an exact cover"
        )
    if mode == "cores":
        moved = [r.shard_id for r in results if r.map_epoch_moved]
        if moved:
            raise SimulationError(
                f"shards {moved} mutated their map tables at runtime — "
                "the static core partition no longer matches the "
                "scheduler's routing (cross-shard coupling detected)"
            )

    report = merge_shard_results(results, topology)
    return ShardedRun(
        report=report,
        topology=topology,
        shard_reports=tuple(r.report for r in sorted(results, key=lambda r: r.shard_id)),
        windows=windows_run,
        grants=tuple(grants),
        workers=n_workers,
        source_fingerprint=source_fingerprint,
    )
