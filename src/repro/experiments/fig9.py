"""Fig. 9 — benefit of migrating only the top flows, relative to AFS.

Setup per Sec. V-C: a single active service (IP forwarding), 16 cores,
offered load slightly above 100% of ideal capacity, real-trace flow
mixes.  Compared policies:

* ``none``      — static hash, no migration (the "lot more packets
  lost" extreme);
* ``afs``       — arbitrary flow shift (the relative baseline = 1.0);
* ``top-k``     — hash + migrate-on-overload gated on exact top-k
  membership, k in {1, 4, 8, 10, 16};
* ``laps-afd``  — the same balancer driven by the real two-level AFD.

Three panels from the same runs, all relative to AFS: (a) packets
dropped, (b) out-of-order packets, (c) flow migrations.
"""

from __future__ import annotations

from repro import units
from repro.core.afd import AFDConfig
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.experiments.batch import RunSpec, WorkloadSpec, run_batch
from repro.experiments.runner import ExperimentResult
from repro.net.service import Service, ServiceSet
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.schedulers.oracle import ExactTopKDetector, TopKMigrationScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.source import DEFAULT_CHUNK_SIZE, StreamingSource
from repro.sim.workload import build_workload
from repro.trace.models import TRIMODAL_INTERNET_SIZES
from repro.workloads.traces import resolve_trace

__all__ = [
    "run",
    "DEFAULT_TRACES",
    "K_SWEEP",
    "single_service_workload",
    "single_service_config",
    "ip_forward_service",
]

DEFAULT_TRACES = ("caida-1", "caida-2", "auck-1", "auck-2")
K_SWEEP = (1, 4, 8, 10, 16)


def ip_forward_service() -> ServiceSet:
    """The Sec. V-C single-service set (IP forwarding only)."""
    return ServiceSet([Service(0, "ip-forward", units.us(0.5))])


def single_service_config(
    num_cores: int = 16, queue_capacity: int = 32
) -> SimConfig:
    """The Fig. 9 platform config (also the ablations' base config)."""
    return SimConfig(
        num_cores=num_cores,
        queue_capacity=queue_capacity,
        services=ip_forward_service(),
        collect_latencies=False,
    )


def single_service_workload(
    trace_name: str,
    *,
    num_cores: int = 16,
    utilisation: float = 1.05,
    duration_ns: int = units.ms(15),
    trace_packets: int = 200_000,
    seed: int = 7,
    stream: bool = False,
    chunk_size: int | None = None,
):
    """IP-forwarding-only workload at *utilisation* of ideal capacity.

    ``stream=True`` returns a chunked
    :class:`~repro.sim.source.StreamingSource` in place of the
    materialized workload (same packets, O(chunk) memory).
    """
    service = ip_forward_service()
    trace = resolve_trace(trace_name, num_packets=trace_packets)
    capacity = service.capacity_pps([num_cores], TRIMODAL_INTERNET_SIZES.mean)
    params = [HoltWintersParams(a=utilisation * capacity)]
    if stream:
        workload = StreamingSource(
            [trace], params, duration_ns, seed=seed,
            chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
        )
    else:
        workload = build_workload(
            [trace], params, duration_ns=duration_ns, seed=seed
        )
    return workload, single_service_config(num_cores)


def _fig9_workload(
    trace: str, duration_ns: int, trace_packets: int, seed: int,
    stream: bool = False, chunk_size: int | None = None,
):
    """Workload factory for :class:`WorkloadSpec` (workload only)."""
    return single_service_workload(
        trace, duration_ns=duration_ns, trace_packets=trace_packets,
        seed=seed, stream=stream, chunk_size=chunk_size,
    )[0]


def _fig9_scheduler(policy: str, seed: int):
    """Scheduler factory for :class:`RunSpec` (policy by name)."""
    if policy == "afs":
        return AFSScheduler(cooldown_ns=units.us(100))
    if policy == "none":
        return StaticHashScheduler()
    if policy.startswith("top-"):
        k = int(policy[len("top-"):])
        return TopKMigrationScheduler(
            detector=ExactTopKDetector(k), migration_table_entries=4096
        )
    if policy == "laps-afd":
        return LAPSScheduler(
            LAPSConfig(
                num_services=1,
                migration_table_entries=4096,
                afd=AFDConfig(promote_threshold=64),
            ),
            rng=seed,
        )
    raise ValueError(f"unknown Fig. 9 policy {policy!r}")


def run(
    quick: bool = False,
    traces: tuple[str, ...] = DEFAULT_TRACES,
    k_sweep: tuple[int, ...] = K_SWEEP,
    seed: int = 7,
    jobs: int = 1,
    stream: bool = False,
    chunk_size: int | None = None,
) -> ExperimentResult:
    """Fig. 9(a-c): every policy on every trace, relative to AFS.

    Runs go through :func:`repro.experiments.batch.run_batch` — one
    workload build per trace shared by every policy; ``jobs`` spreads
    traces over a process pool (0 = auto).  The AFS-relative columns
    are computed after the batch from each trace's own AFS row.
    """
    duration_ns = units.ms(4) if quick else units.ms(15)
    trace_packets = 50_000 if quick else 200_000
    if quick:
        traces = traces[:2]

    result = ExperimentResult(
        "Fig. 9 - migrating only top flows, relative to AFS",
        columns=[
            "trace", "policy",
            "dropped", "ooo", "flow_migrations",
            "drop_rel_afs", "ooo_rel_afs", "migrations_rel_afs",
        ],
        meta={"quick": quick, "utilisation": 1.05, "seed": seed},
    )
    policies = ["afs", "none", *(f"top-{k}" for k in k_sweep), "laps-afd"]
    specs = []
    for name in traces:
        wspec = WorkloadSpec.of(
            _fig9_workload,
            trace=name,
            duration_ns=duration_ns,
            trace_packets=trace_packets,
            seed=seed,
            stream=stream,
            chunk_size=chunk_size,
        )
        for policy in policies:
            specs.append(RunSpec(
                workload=wspec,
                scheduler_fn=_fig9_scheduler,
                scheduler_kwargs={"policy": policy, "seed": seed},
                config_fn=single_service_config,
                label={"trace": name, "policy": policy},
            ))
    runs = run_batch(specs, jobs=jobs)
    baselines = {
        r.label["trace"]: r.report for r in runs if r.label["policy"] == "afs"
    }
    for run_ in runs:
        rep = run_.report
        rel = rep.relative_to(baselines[run_.label["trace"]])
        result.add(
            **run_.label,
            dropped=rep.dropped, ooo=rep.out_of_order,
            flow_migrations=rep.flow_migration_events,
            drop_rel_afs=round(rel["dropped"], 4),
            ooo_rel_afs=round(rel["out_of_order"], 4),
            migrations_rel_afs=round(rel["flow_migrations"], 4),
        )
    return result
