"""Exact aggregation of per-shard results into one ``SimReport``.

The merge mirrors :meth:`repro.sim.metrics.SimMetrics.finalize`
computation-for-computation so a cores-mode sharded run reproduces the
single-process report *bit for bit*:

* counters sum (shards count disjoint packet sets);
* per-core busy nanoseconds sum elementwise as integers, then become
  utilisation against the merged observed horizon — ``max`` over the
  shards' own ``observed_ns``, which equals the single-process
  ``max(duration, last_depart)`` because the global last departure
  happened in exactly one shard;
* latencies are integer nanoseconds: their float64 sum is exact below
  2**53 (every partial sum is an integer), so the merged mean is
  order-independent, and the percentiles sort, so only the multiset
  matters — concatenation order is irrelevant;
* ``departures``/``drop_records`` concatenate and sort into canonical
  ``(flow, seq, t)`` order.  This is the one field where the sharded
  report is canonicalised rather than byte-ordered like the
  single-process egress interleaving (same multiset, sorted order);
  ``record_departures`` defaults off, so ordinary reports are
  unaffected.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.sim.metrics import SimReport
from repro.sim.sharding.shard import ShardResult
from repro.sim.sharding.topology import ShardTopology
from repro.util.stats import summarize

__all__ = ["merge_shard_results"]


def merge_shard_results(
    results: list[ShardResult],
    topology: ShardTopology,
) -> SimReport:
    """Fold per-shard results into the system-wide report."""
    if not results:
        raise SimulationError("no shard results to merge")
    results = sorted(results, key=lambda r: r.shard_id)
    first = results[0].report
    num_cores = topology.num_cores
    num_services = topology.num_services

    busy = [0] * num_cores
    gen_svc = [0] * num_services
    drop_svc = [0] * num_services
    stats: dict[str, float] = {}
    latencies: list[np.ndarray] = []
    departures: list[tuple[int, int, int]] = []
    drop_records: list[tuple[int, int, int]] = []
    generated = dropped = departed = out_of_order = 0
    cold = migrations = migrated_flows = fault_dropped = 0
    observed_ns = 0

    for res in results:
        rep = res.report
        if len(res.busy_ns) != num_cores:
            raise SimulationError(
                f"shard {res.shard_id} reports {len(res.busy_ns)} cores, "
                f"topology says {num_cores}"
            )
        for c, b in enumerate(res.busy_ns):
            busy[c] += b
        if topology.mode == "cores":
            # every shard sees the full (global) service list
            for s in range(num_services):
                gen_svc[s] += rep.generated_per_service[s]
                drop_svc[s] += rep.dropped_per_service[s]
        else:
            # local service s of shard k is global service_groups[k][s]
            group = topology.service_groups[res.shard_id]
            for s, sid in enumerate(group):
                gen_svc[sid] += rep.generated_per_service[s]
                drop_svc[sid] += rep.dropped_per_service[s]
        for key, val in rep.scheduler_stats.items():
            stats[key] = stats.get(key, 0) + val
        latencies.append(res.latencies_ns)
        departures.extend(rep.departures)
        drop_records.extend(rep.drop_records)
        generated += rep.generated
        dropped += rep.dropped
        departed += rep.departed
        out_of_order += rep.out_of_order
        cold += rep.cold_cache_events
        migrations += rep.flow_migration_events
        migrated_flows += rep.migrated_flows
        fault_dropped += rep.fault_dropped
        observed_ns = max(observed_ns, rep.observed_ns)

    util = [
        b / observed_ns if observed_ns > 0 else 0.0 for b in busy
    ]
    pooled = np.concatenate(latencies)
    lat = (
        summarize(pooled)
        if pooled.size
        else {k: 0.0 for k in ("mean", "min", "max", "p50", "p95", "p99")}
    )
    return SimReport(
        scheduler=first.scheduler,
        duration_ns=first.duration_ns,
        observed_ns=observed_ns,
        generated=generated,
        dropped=dropped,
        departed=departed,
        out_of_order=out_of_order,
        cold_cache_events=cold,
        flow_migration_events=migrations,
        migrated_flows=migrated_flows,
        generated_per_service=tuple(gen_svc),
        dropped_per_service=tuple(drop_svc),
        core_utilization=tuple(util),
        latency_ns=lat,
        scheduler_stats=stats,
        departures=tuple(sorted(departures)),
        drop_records=tuple(sorted(drop_records)),
        fault_dropped=fault_dropped,
    )
