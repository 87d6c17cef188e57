"""Integration tests for the full simulator."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigError, SimulationError
from repro.net.service import Service, ServiceSet, default_services
from repro.schedulers.base import Scheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.kernel import SimKernel
from repro.sim.system import simulate
from repro.sim.workload import Workload, build_workload


def manual_workload(arrivals, flows, services=None, sizes=None, num_services=1):
    n = len(arrivals)
    flows = np.asarray(flows, dtype=np.int64)
    num_flows = int(flows.max()) + 1 if n else 1
    seq = np.zeros(n, dtype=np.int64)
    seen = {}
    for i, f in enumerate(flows):
        seq[i] = seen.get(int(f), 0)
        seen[int(f)] = seq[i] + 1
    return Workload(
        arrival_ns=np.asarray(arrivals, dtype=np.int64),
        service_id=np.asarray(services or [0] * n, dtype=np.int32),
        flow_id=flows,
        size_bytes=np.asarray(sizes or [64] * n, dtype=np.int32),
        flow_hash=flows.copy(),
        seq=seq,
        num_flows=num_flows,
        num_services=num_services,
        duration_ns=int(arrivals[-1]) + 1 if n else 1,
    )


def one_core_config(**kw):
    svc = ServiceSet([Service(0, "s", 1000)])  # 1 us per packet
    kw.setdefault("num_cores", 1)
    kw.setdefault("queue_capacity", 2)
    kw.setdefault("services", svc)
    return SimConfig(**kw)


class TestHandComputedScenarios:
    def test_single_packet(self):
        wl = manual_workload([0], [0])
        rep = simulate(wl, StaticHashScheduler(), one_core_config())
        assert rep.generated == 1 and rep.departed == 1 and rep.dropped == 0
        assert rep.latency_ns["mean"] == pytest.approx(1000)

    def test_queueing_delay(self):
        # two packets arrive together: second waits 1 us
        wl = manual_workload([0, 0], [0, 0])
        rep = simulate(wl, StaticHashScheduler(), one_core_config())
        assert rep.departed == 2
        assert rep.latency_ns["max"] == pytest.approx(2000)

    def test_queue_overflow_drops(self):
        # 1 in service + 2 queued fills the system; the 4th drops
        wl = manual_workload([0, 0, 0, 0], [0, 0, 0, 0])
        rep = simulate(wl, StaticHashScheduler(), one_core_config())
        assert rep.dropped == 1
        assert rep.departed == 3

    def test_flow_migration_penalty_charged(self):
        # flow 0 alternates cores under FCFS-ish steering
        class PingPong(Scheduler):
            name = "pingpong"

            def __init__(self):
                super().__init__()
                self.turn = 0

            def select_core(self, flow_id, service_id, flow_hash, t_ns):
                self.turn ^= 1
                return self.turn

        svc = ServiceSet([Service(0, "s", 1000)])
        cfg = SimConfig(num_cores=2, queue_capacity=4, services=svc)
        wl = manual_workload([0, 5000, 10_000], [0, 0, 0])
        rep = simulate(wl, PingPong(), cfg)
        assert rep.flow_migration_events == 2
        assert rep.migrated_flows == 1

    def test_cold_cache_penalty_on_service_switch(self):
        wl = manual_workload(
            [0, 20_000], [0, 1], services=[0, 1], num_services=2
        )
        svc = ServiceSet([Service(0, "a", 1000), Service(1, "b", 1000)])
        cfg = SimConfig(num_cores=1, queue_capacity=4, services=svc,
                        cc_penalty_ns=10_000)
        rep = simulate(wl, FCFSScheduler(), cfg)
        assert rep.cold_cache_events == 1
        # second packet pays 1 us + 10 us
        assert rep.latency_ns["max"] == pytest.approx(11_000)

    def test_first_packet_never_cold(self):
        wl = manual_workload([0], [0])
        rep = simulate(wl, StaticHashScheduler(), one_core_config())
        assert rep.cold_cache_events == 0

    def test_reorder_via_migration(self):
        # flow packets: 1st to slow core 0 (long queue), 2nd to idle core 1
        class SplitOnce(Scheduler):
            name = "splitonce"

            def __init__(self):
                super().__init__()
                self.sent = 0

            def select_core(self, flow_id, service_id, flow_hash, t_ns):
                if flow_id == 9:
                    self.sent += 1
                    return 0 if self.sent == 1 else 1
                return 0

        svc = ServiceSet([Service(0, "s", 1000)])
        cfg = SimConfig(num_cores=2, queue_capacity=8, services=svc,
                        fm_penalty_ns=0)
        # three fillers on core 0, then flow 9 twice
        wl = manual_workload([0, 0, 0, 0, 100], [1, 2, 3, 9, 9])
        rep = simulate(wl, SplitOnce(), cfg)
        assert rep.out_of_order == 1


class TestConservation:
    def test_packet_conservation(self, small_workload, small_config):
        rep = simulate(small_workload, FCFSScheduler(), small_config)
        assert rep.generated == small_workload.num_packets
        assert rep.departed + rep.dropped <= rep.generated
        # with a generous drain everything is accounted
        assert rep.departed + rep.dropped == rep.generated

    def test_per_service_breakdown_sums(self, small_workload, small_config):
        rep = simulate(small_workload, FCFSScheduler(), small_config)
        assert sum(rep.generated_per_service) == rep.generated
        assert sum(rep.dropped_per_service) == rep.dropped

    def test_utilization_bounded(self, small_workload, small_config):
        """Strict bound: with the observed-horizon denominator, drain
        busy time can no longer push "utilisation" past 1.0."""
        rep = simulate(small_workload, FCFSScheduler(), small_config)
        assert all(0.0 <= u <= 1.0 for u in rep.core_utilization)
        assert rep.observed_ns >= rep.duration_ns

    def test_events_popped_matches_departures(self, small_workload, small_config):
        kernel = SimKernel(small_config, FCFSScheduler(), small_workload)
        rep = kernel.run()
        # one completion event per departure
        assert kernel.events_popped == rep.departed


class TestDeterminism:
    def test_same_inputs_same_report(self, small_workload, small_config):
        a = simulate(small_workload, StaticHashScheduler(), small_config)
        b = simulate(small_workload, StaticHashScheduler(), small_config)
        assert a.dropped == b.dropped
        assert a.out_of_order == b.out_of_order
        assert a.core_utilization == b.core_utilization


class TestGuards:
    def test_run_once(self, small_workload, small_config):
        kernel = SimKernel(small_config, FCFSScheduler(), small_workload)
        kernel.run()
        with pytest.raises(SimulationError, match="already finished"):
            kernel.run()

    def test_bad_core_id_detected(self, small_workload, small_config):
        class Broken(Scheduler):
            name = "broken"

            def select_core(self, *a):
                return 99

        with pytest.raises(SimulationError):
            simulate(small_workload, Broken(), small_config)

    def test_too_many_services_rejected(self, small_config):
        wl = manual_workload([0], [0], services=[3], num_services=4)
        with pytest.raises(ConfigError):
            simulate(wl, FCFSScheduler(), small_config)

    def test_collect_latencies_toggle(self, small_workload, single_service):
        cfg = SimConfig(num_cores=4, services=single_service,
                        collect_latencies=False)
        rep = simulate(small_workload, FCFSScheduler(), cfg)
        assert rep.latency_ns["mean"] == 0.0


class TestEndToEndSchedulers:
    @pytest.mark.parametrize(
        "name", ["fcfs", "hash-static", "afs", "topk", "laps"]
    )
    def test_every_scheduler_runs(self, name, small_workload, single_service):
        from repro.core.laps import LAPSConfig
        from repro.schedulers.base import make_scheduler

        kwargs = {}
        if name == "laps":
            kwargs["config"] = LAPSConfig(num_services=1)
        sched = make_scheduler(name, **kwargs)
        cfg = SimConfig(num_cores=4, services=single_service,
                        collect_latencies=False)
        rep = simulate(small_workload, sched, cfg)
        assert rep.generated == small_workload.num_packets
        assert rep.departed > 0

    def test_multiservice_laps_partitions(self):
        """LAPS keeps services on disjoint cores -> zero cold caches in
        a stable under-loaded run."""
        from repro.core.laps import LAPSConfig, LAPSScheduler
        from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

        traces = [
            generate_trace(
                SyntheticTraceConfig(num_packets=2000, num_flows=100,
                                     num_elephants=4, seed=i)
            )
            for i in range(4)
        ]
        services = default_services()
        caps = [4 * services[i].capacity_pps(348) for i in range(4)]
        params = [HoltWintersParams(a=0.5 * caps[i]) for i in range(4)]
        wl = build_workload(traces, params, units.ms(5), seed=2)
        cfg = SimConfig(num_cores=16, collect_latencies=False)
        rep = simulate(wl, LAPSScheduler(LAPSConfig(num_services=4)), cfg)
        assert rep.cold_cache_fraction < 0.01
        assert rep.drop_fraction < 0.05
