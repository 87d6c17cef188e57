"""Simulation metrics: counters accumulated during a run and the final
:class:`SimReport` the experiment harness consumes.

Everything Figs. 7 and 9 plot is here: packets dropped, out-of-order
departures, cold-cache fraction, flow migrations — plus supporting
signals (latency summary, per-core utilisation, Jain fairness of load).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.stats import jain_fairness, summarize

__all__ = ["SimMetrics", "SimReport"]


class SimMetrics:
    """Mutable counters the simulator updates in its hot loop."""

    __slots__ = (
        "num_services",
        "num_cores",
        "generated",
        "dropped",
        "departed",
        "cold_cache_events",
        "flow_migration_events",
        "generated_per_service",
        "dropped_per_service",
        "busy_ns_per_core",
        "latencies_ns",
        "last_depart_ns",
        "fault_dropped",
    )

    def __init__(self, num_services: int, num_cores: int) -> None:
        self.num_services = num_services
        self.num_cores = num_cores
        self.generated = 0
        self.dropped = 0
        self.departed = 0
        self.cold_cache_events = 0
        self.flow_migration_events = 0
        #: subset of ``dropped`` attributable to injected faults: packets
        #: killed in service on a failing core, descriptors drained from
        #: its queue, and packets later offered to a dead core's queue
        #: (see :mod:`repro.faults`)
        self.fault_dropped = 0
        self.generated_per_service = [0] * num_services
        self.dropped_per_service = [0] * num_services
        self.busy_ns_per_core = [0] * num_cores
        #: latency samples (ns) as int64 chunks in booking order, one
        #: per booking that departed something; read them with
        #: :meth:`latency_samples`
        self.latencies_ns: list[np.ndarray] = []
        self.last_depart_ns = 0

    def __setstate__(self, state) -> None:
        for name in self.__slots__:
            setattr(self, name, state[1][name])
        # v7 checkpoints taken before the samples were chunked carry
        # them as one list of ints
        lat = self.latencies_ns
        if lat and not isinstance(lat[0], np.ndarray):
            self.latencies_ns = [np.asarray(lat, dtype=np.int64)]

    def latency_samples(self) -> np.ndarray:
        """Every latency sample so far, in booking order, as one int64
        array, which becomes the only chunk."""
        chunks = self.latencies_ns
        if not chunks:
            return np.empty(0, dtype=np.int64)
        if len(chunks) > 1:
            self.latencies_ns = [np.concatenate(chunks)]
        return self.latencies_ns[0]

    def finalize(
        self,
        *,
        duration_ns: int,
        out_of_order: int,
        scheduler_name: str,
        scheduler_stats: dict[str, float],
        migrated_flows: int,
        departures: tuple[tuple[int, int, int], ...] = (),
        drop_records: tuple[tuple[int, int, int], ...] = (),
    ) -> "SimReport":
        """Freeze the counters into an immutable report.

        Utilisation divides busy time by the *observed* horizon — the
        workload duration extended to the last departure when the drain
        phase ran past it — so a core can never exceed 1.0 just because
        it kept serving queued packets after the last arrival.
        """
        observed_ns = max(duration_ns, self.last_depart_ns)
        util = [
            b / observed_ns if observed_ns > 0 else 0.0 for b in self.busy_ns_per_core
        ]
        samples = self.latency_samples()
        lat = (
            summarize(samples)
            if samples.size
            else {k: 0.0 for k in ("mean", "min", "max", "p50", "p95", "p99")}
        )
        return SimReport(
            scheduler=scheduler_name,
            duration_ns=duration_ns,
            observed_ns=observed_ns,
            generated=self.generated,
            dropped=self.dropped,
            departed=self.departed,
            out_of_order=out_of_order,
            cold_cache_events=self.cold_cache_events,
            flow_migration_events=self.flow_migration_events,
            migrated_flows=migrated_flows,
            generated_per_service=tuple(self.generated_per_service),
            dropped_per_service=tuple(self.dropped_per_service),
            core_utilization=tuple(util),
            latency_ns=lat,
            scheduler_stats=dict(scheduler_stats),
            departures=departures,
            drop_records=drop_records,
            fault_dropped=self.fault_dropped,
        )


@dataclass(frozen=True)
class SimReport:
    """Immutable result of one simulation run."""

    scheduler: str
    duration_ns: int
    generated: int
    dropped: int
    departed: int
    out_of_order: int
    cold_cache_events: int
    flow_migration_events: int
    migrated_flows: int
    generated_per_service: tuple[int, ...]
    dropped_per_service: tuple[int, ...]
    core_utilization: tuple[float, ...]
    #: utilisation horizon: ``max(duration_ns, last departure)`` — the
    #: denominator of ``core_utilization`` (covers the drain phase).
    observed_ns: int = 0
    latency_ns: dict[str, float] = field(default_factory=dict)
    scheduler_stats: dict[str, float] = field(default_factory=dict)
    #: egress sequence (flow_id, seq, depart_ns), only when
    #: ``SimConfig.record_departures`` was set.
    departures: tuple[tuple[int, int, int], ...] = ()
    #: queue-overflow losses (flow_id, seq, drop_ns), same gate.
    drop_records: tuple[tuple[int, int, int], ...] = ()
    #: subset of ``dropped`` attributable to injected faults (0 when the
    #: run had no :class:`~repro.faults.FaultInjector` attached).
    fault_dropped: int = 0

    # ------------------------------------------------------------------
    @property
    def drop_fraction(self) -> float:
        """Packets dropped / packets offered (Fig. 7a's metric)."""
        return self.dropped / self.generated if self.generated else 0.0

    @property
    def ooo_fraction(self) -> float:
        """Out-of-order departures / departures (Fig. 7c's metric)."""
        return self.out_of_order / self.departed if self.departed else 0.0

    @property
    def cold_cache_fraction(self) -> float:
        """Packets that paid the cold-cache penalty / departures
        (Fig. 7b's metric — "almost 60% of packets suffer from cold
        cache penalties" under FCFS/AFS)."""
        return self.cold_cache_events / self.departed if self.departed else 0.0

    @property
    def migration_fraction(self) -> float:
        """Packets that paid the flow-migration penalty / departures."""
        return self.flow_migration_events / self.departed if self.departed else 0.0

    @property
    def throughput_pps(self) -> float:
        """Departures per second of model time."""
        if self.duration_ns <= 0:
            return 0.0
        return self.departed / (self.duration_ns / 1e9)

    @property
    def load_fairness(self) -> float:
        """Jain fairness index of per-core busy time."""
        return jain_fairness(self.core_utilization)

    def as_row(self) -> dict[str, float | str]:
        """Flat dict for table rendering."""
        return {
            "scheduler": self.scheduler,
            "generated": self.generated,
            "dropped": self.dropped,
            "drop_frac": self.drop_fraction,
            "departed": self.departed,
            "ooo": self.out_of_order,
            "ooo_frac": self.ooo_fraction,
            "cold_frac": self.cold_cache_fraction,
            "migrations": self.flow_migration_events,
            "migrated_flows": self.migrated_flows,
            "fairness": self.load_fairness,
            "p99_latency_us": self.latency_ns.get("p99", 0.0) / 1e3,
        }

    def relative_to(self, baseline: "SimReport") -> dict[str, float]:
        """Ratios against a baseline run (Fig. 9 plots these).

        NaN where the baseline never triggered the event.
        """
        def ratio(a: float, b: float) -> float:
            return a / b if b else float("nan")

        return {
            "dropped": ratio(self.dropped, baseline.dropped),
            "out_of_order": ratio(self.out_of_order, baseline.out_of_order),
            "flow_migrations": ratio(
                self.flow_migration_events, baseline.flow_migration_events
            ),
            "migrated_flows": ratio(self.migrated_flows, baseline.migrated_flows),
        }
