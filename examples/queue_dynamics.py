#!/usr/bin/env python
"""Queue dynamics over time: watching the load balancer work.

Attaches a :class:`repro.TelemetryProbe` (queue-occupancy + progress
samplers) to two runs — static hash (no balancing) vs LAPS — and prints the per-core queue *imbalance*
(max−min occupancy) and drop rate over time.  Static hash shows a
persistent spread (the elephant cores pinned at the queue limit while
others idle); LAPS collapses the spread shortly after the AFD warms up.

Also demonstrates the order-restoration post-analysis: how much egress
buffering would FCFS's reordering require (the Sec. VI alternative the
paper argues against)?

Run:  python examples/queue_dynamics.py
"""

import numpy as np

from repro import (
    HoltWintersParams,
    LAPSConfig,
    LAPSScheduler,
    Service,
    ServiceSet,
    SimConfig,
    TelemetryProbe,
    build_workload,
    make_scheduler,
    preset_trace,
    restoration_cost,
    simulate,
    units,
)
from repro.obs import ProgressSampler, QueueOccupancySampler
from repro.util.tables import format_table


def spread_and_drops(probe: TelemetryProbe) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample max−min queue spread and drops per period."""
    occ = probe.occupancy_matrix()
    drops = np.diff(probe.column("dropped"), prepend=0).astype(np.int64)
    return occ.max(axis=1) - occ.min(axis=1), drops


def main() -> None:
    trace = preset_trace("caida-1", num_packets=100_000)
    service = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
    config = SimConfig(num_cores=16, services=service, collect_latencies=False)
    capacity = service.capacity_pps([16], mean_size_bytes=348)
    workload = build_workload(
        [trace], [HoltWintersParams(a=1.0 * capacity)],
        duration_ns=units.ms(10), seed=11,
    )

    period = units.ms(1)
    times = {}
    series = {}
    for name, sched in (
        ("hash-static", make_scheduler("hash-static")),
        ("laps", LAPSScheduler(LAPSConfig(num_services=1), rng=1)),
    ):
        probe = TelemetryProbe(period, [QueueOccupancySampler(), ProgressSampler()])
        simulate(workload, sched, config, probe=probe)
        times[name] = probe.times_ns
        series[name] = spread_and_drops(probe)

    rows = []
    n = min(len(t) for t in times.values())
    hash_spread, hash_drops = series["hash-static"]
    laps_spread, laps_drops = series["laps"]
    for i in range(n):
        rows.append([
            f"{times['hash-static'][i] / 1e6:.0f}",
            int(hash_spread[i]),
            int(hash_drops[i]),
            int(laps_spread[i]),
            int(laps_drops[i]),
        ])
    print(format_table(
        ["t (ms)", "hash spread", "hash drops/ms", "laps spread", "laps drops/ms"],
        rows,
        title="Queue imbalance and drop rate over time (16 cores, 100% load)",
    ))

    mean_spread = {
        name: float(np.mean(spread)) for name, (spread, _) in series.items()
    }
    print(f"\nmean queue spread: hash-static {mean_spread['hash-static']:.1f} "
          f"vs laps {mean_spread['laps']:.1f} descriptors")

    # --- order restoration: what would fixing FCFS at egress cost? ---
    rec_config = SimConfig(num_cores=16, services=service,
                           collect_latencies=False, record_departures=True)
    fcfs = simulate(workload, make_scheduler("fcfs"), rec_config)
    full = restoration_cost(fcfs.departures, drops=fcfs.drop_records)
    bounded = restoration_cost(fcfs.departures, capacity=64,
                               drops=fcfs.drop_records)
    print(f"\nFCFS reordered {fcfs.out_of_order} packets; an egress "
          f"re-sequencer needs {full.max_occupancy} descriptors to fix that "
          f"fully (64 descriptors leak {bounded.residual_out_of_order}).")
    print(f"But restoration fixes only the ordering: FCFS still dropped "
          f"{fcfs.drop_fraction:.0%} of packets to flow-migration and "
          f"cold-cache penalties, which no egress buffer recovers -- the "
          f"paper's argument for preserving order (and locality) upstream.")


if __name__ == "__main__":
    main()
