"""The sharded-run coordinator: conservative-time PDES over a
persistent worker pool.

:func:`run_sharded` cuts the system with :func:`~repro.sim.sharding.
topology.plan_topology`, ships one picklable
:class:`~repro.sim.sharding.shard.ShardSpec` per shard to a sticky
worker slot (shard state *lives in the worker* between calls — every
window goes back to the process holding the kernel), drives the
mode-appropriate protocol, and merges the per-shard results exactly.

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
# worker-side entry points (module-level: they must pickle by name).
# A worker keeps its shards in this registry between calls; entries of
# an older run are evicted the first time a new run builds into it.
# ----------------------------------------------------------------------
_RESIDENT: dict[tuple[str, int], Shard] = {}


def _w_build(arg) -> int:
    token, spec = arg
    for key in [k for k in _RESIDENT if k[0] != token]:
        del _RESIDENT[key]
    _RESIDENT[(token, spec.shard_id)] = Shard(spec)
    return spec.shard_id


def _w_call(arg):
    token, shard_id, method, payload = arg
    shard = _RESIDENT.get((token, shard_id))
    if shard is None:
        raise SimulationError(
            f"shard {shard_id} is not resident in this worker — the "
            "pool was resized or restarted mid-run"
        )
    return getattr(shard, method)(payload)


# ----------------------------------------------------------------------
class _InlineBackend:
    """All shards in this process (workers=1, or nested in a pool
    worker, where spawning children is impossible)."""

    def __init__(self, specs: list[ShardSpec]) -> None:
        self._specs = specs
        self._shards: list[Shard] = []

    def build(self) -> None:
        self._shards = [Shard(s) for s in self._specs]

    def call_all(self, method: str, payloads: list) -> list:
        return [
            getattr(shard, method)(p)
            for shard, p in zip(self._shards, payloads)
        ]


class _PoolBackend:
    """Shards resident in persistent pool workers, slot ``shard_id %
    workers`` — the sticky routing :meth:`ProcessPool.scatter`
    guarantees is what keeps every window call landing on the process
    that holds the shard's kernel."""

    def __init__(self, specs: list[ShardSpec], workers: int) -> None:
        self._specs = specs
        self._pool = shared_pool(workers)
        self._token = f"{os.getpid()}:{next(_TOKENS)}"

    def build(self) -> None:
        self._pool.scatter(
            [(s.shard_id, _w_build, (self._token, s)) for s in self._specs]
        )

    def call_all(self, method: str, payloads: list) -> list:
        return self._pool.scatter(
            [
                (s.shard_id, _w_call, (self._token, s.shard_id, method, p))
                for s, p in zip(self._specs, payloads)
            ]
        )


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
    platform = [ev for ev in injector.schedule.events if ev.kind == "platform"]
    return (FaultSchedule(platform) if platform else None), injector.drain_policy


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
    """Run one simulation sharded *shards* ways across worker processes.

    *workers* bounds the process count (0 = ``default_jobs()``, itself
    overridable with ``REPRO_JOBS``); shards beyond the worker count
    time-share slots.  The outcome is worker-count independent: cores
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
        platform = [ev for ev in schedule.events if ev.kind == "platform"]
        if platform:
            if drain_policy != "drop":
                raise ConfigError(
                    "sharded runs with platform fault events require "
                    "drain_policy='drop': the reassign policy re-routes "
                    "a failed core's queue across the partition"
                )
            platform_schedule = FaultSchedule(platform)

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

    n_workers = workers if workers > 0 else default_jobs()
    n_workers = min(n_workers, shards)
    if n_workers <= 1 or in_pool_worker():
        n_workers = 1
        backend = _InlineBackend(specs)
    else:
        backend = _PoolBackend(specs, n_workers)
    backend.build()

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
