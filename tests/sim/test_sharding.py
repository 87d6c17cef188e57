"""Sharded execution: bit-identity, determinism and the barrier protocol.

The contract under test (see ``docs/architecture.md``, Sharded
execution):

* **cores mode** — any ``shard_static`` scheduler (the static maps)
  produces a merged report *bit-identical* to the single-process run,
  for any shard count, any worker count, materialized or streamed
  sources, with or without a fault schedule;
* **services mode** — LAPS is a deterministic function of
  (workload seed, window, shard count): worker counts never change the
  report, and cross-shard core donations resolve identically run to
  run;
* everything that cannot keep those promises is rejected loudly.
"""

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError, SimulationError
from repro.faults import (
    CoreFail,
    CoreRecover,
    FaultInjector,
    FaultSchedule,
    TrafficSurge,
    apply_traffic_events,
)
from repro.net.service import Service, ServiceSet
from repro.obs.manifest import RunManifest
from repro.schedulers.base import make_scheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.schedulers.rss_static import RSSStaticScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.sharding import plan_topology, run_sharded
from repro.sim.sharding.aggregate import merge_shard_results
from repro.sim.source import StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace

NUM_CORES = 8
DURATION = units.ms(2)


@pytest.fixture(scope="module")
def services():
    return ServiceSet([
        Service(0, "a", units.us(0.5)),
        Service(1, "b", units.us(1.0)),
        Service(2, "c", units.us(0.8)),
        Service(3, "d", units.us(1.2)),
    ])


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        SyntheticTraceConfig(
            num_packets=4000, num_flows=400, num_elephants=8,
            elephant_share=0.5, seed=7,
        ),
        name="shard-test",
    )


@pytest.fixture(scope="module")
def parts(services, trace):
    """(traces, Holt-Winters params) at 0.5x capacity per service."""
    cap = services.capacity_pps([2, 2, 2, 2], mean_size_bytes=348.0)
    return [trace] * 4, [HoltWintersParams(a=0.5 * cap / 4)] * 4


@pytest.fixture(scope="module")
def workload(parts):
    traces, hw = parts
    return build_workload(traces, hw, duration_ns=DURATION, seed=3)


@pytest.fixture(scope="module")
def config(services):
    return SimConfig(num_cores=NUM_CORES, services=services)


@pytest.fixture(scope="module")
def baseline_hash(workload, config):
    return simulate(workload, StaticHashScheduler(), config)


class TestCoresBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3])
    def test_hash_static_matches_single_process(
        self, workload, config, baseline_hash, shards
    ):
        run = run_sharded(
            workload, StaticHashScheduler(), config,
            shards=shards, workers=1,
        )
        assert run.report == baseline_hash
        assert run.topology.mode == "cores"

    def test_rss_static_matches_single_process(self, workload, config):
        base = simulate(workload, RSSStaticScheduler(), config)
        run = run_sharded(
            workload, RSSStaticScheduler(), config, shards=2, workers=1,
        )
        assert run.report == base

    def test_multiprocess_equals_inline(self, workload, config, baseline_hash):
        # the caller simulates the shards k % workers == 0: with more
        # shards than processes it holds two of them
        for shards in (2, 3, 4):
            for workers in (2, 3):
                run = run_sharded(
                    workload, StaticHashScheduler(), config,
                    shards=shards, workers=workers,
                )
                assert run.workers == min(shards, workers)
                assert run.report == baseline_hash, (shards, workers)

    def test_caller_shard_error_leaves_the_pool_usable(
        self, workload, config, baseline_hash, monkeypatch
    ):
        from repro.sim.sharding import shard as shard_mod
        from repro.util.parallel import shared_pool

        def fail(self, _arg=None):
            raise RuntimeError("caller shard failed")

        pool = shared_pool(1)
        with monkeypatch.context() as patch:
            # patched in this process only: the worker's shard runs on,
            # its reply in flight when the caller's shard raises
            patch.setattr(shard_mod.Shard, "run_arrivals", fail)
            with pytest.raises(RuntimeError, match="caller shard failed"):
                run_sharded(
                    workload, StaticHashScheduler(), config,
                    shards=2, workers=2,
                )
        assert shared_pool(1) is pool
        run = run_sharded(
            workload, StaticHashScheduler(), config, shards=2, workers=2,
        )
        assert run.report == baseline_hash

    def test_worker_ships_latencies_as_int64(
        self, workload, config, baseline_hash, monkeypatch
    ):
        """Shard 1 runs in a spawned pool worker: its latency samples
        come back as one int64 array, and the merge of the arrays still
        equals the single-process report."""
        from repro.sim.sharding import coordinator

        seen = []

        def merge(results, topology):
            seen.extend(results)
            return merge_shard_results(results, topology)

        monkeypatch.setattr(coordinator, "merge_shard_results", merge)
        run = run_sharded(
            workload, StaticHashScheduler(), config, shards=2, workers=2,
        )
        assert run.workers == 2
        assert run.report == baseline_hash
        assert sorted(r.shard_id for r in seen) == [0, 1]
        for res in seen:
            assert isinstance(res.latencies_ns, np.ndarray)
            assert res.latencies_ns.dtype == np.int64
            assert res.latencies_ns.size == res.report.departed
        assert sum(r.latencies_ns.size for r in seen) == baseline_hash.departed

    def test_streamed_source_matches_materialized(
        self, parts, config, baseline_hash
    ):
        traces, hw = parts
        source = StreamingSource(
            traces, hw, DURATION, seed=3, chunk_size=512,
        )
        run = run_sharded(
            source, StaticHashScheduler(), config, shards=2, workers=1,
        )
        assert run.report == baseline_hash

    @pytest.mark.parametrize("make", [StaticHashScheduler, RSSStaticScheduler])
    def test_faulted_run_matches_single_process(self, workload, config, make):
        schedule = FaultSchedule([
            CoreFail(units.us(300), core_id=2),
            CoreRecover(units.us(900), core_id=2),
            TrafficSurge(units.us(100), duration_ns=units.us(400),
                         service_id=1, factor=2.0),
        ])
        # single-process semantics: traffic events are applied by the
        # caller, the injector carries the platform events
        base = simulate(
            apply_traffic_events(workload, schedule), make(), config,
            injector=FaultInjector(schedule, drain_policy="drop"),
        )
        run = run_sharded(
            workload, make(), config, shards=3, workers=2,
            schedule=schedule,
        )
        assert run.report == base
        assert run.report.fault_dropped == base.fault_dropped

    def test_simulate_shards_kwarg_delegates(
        self, workload, config, baseline_hash
    ):
        rep = simulate(
            workload, StaticHashScheduler(), config, shards=2,
            shard_workers=1,
        )
        assert rep == baseline_hash

    def test_shard_reports_cover_partition(self, workload, config):
        run = run_sharded(
            workload, StaticHashScheduler(), config, shards=2, workers=1,
        )
        assert len(run.shard_reports) == 2
        total = sum(r.generated for r in run.shard_reports)
        assert total == run.report.generated == workload.num_packets


class TestServicesMode:
    def _laps(self):
        return LAPSScheduler(LAPSConfig(num_services=4))

    def test_worker_count_never_changes_the_report(self, workload, config):
        # four shards over one, two and three processes: the caller
        # holds shards {0..3}, {0, 2} and {0, 3}
        a, b, c = (
            run_sharded(workload, self._laps(), config, shards=4,
                        workers=w, window_ns=units.us(200))
            for w in (1, 2, 3)
        )
        assert (a.workers, b.workers, c.workers) == (1, 2, 3)
        assert a.report == b.report == c.report
        assert a.grants == b.grants == c.grants
        assert a.topology.mode == "services"
        assert a.windows == b.windows == c.windows > 0

    def test_cross_shard_donation(self, services, trace, config):
        # shard 0 = services {0, 1} both saturated, shard 1 = services
        # {2, 3} nearly idle: the only way shard 0 gets relief is a
        # barrier-resolved donation from shard 1
        cap = services.capacity_pps([2, 2, 2, 2], mean_size_bytes=348.0)
        hw = [
            HoltWintersParams(a=1.3 * cap / 4),
            HoltWintersParams(a=1.3 * cap / 4),
            HoltWintersParams(a=0.03 * cap / 4),
            HoltWintersParams(a=0.03 * cap / 4),
        ]
        wl = build_workload([trace] * 4, hw, duration_ns=units.ms(4), seed=5)
        lc = LAPSConfig(num_services=4, idle_threshold_ns=units.us(150))
        a = run_sharded(wl, LAPSScheduler(lc), config, shards=2,
                        workers=1, window_ns=units.us(250))
        b = run_sharded(wl, LAPSScheduler(lc), config, shards=2,
                        workers=2, window_ns=units.us(250))
        assert a.report == b.report
        assert len(a.grants) > 0
        assert a.grants == b.grants
        for g in a.grants:
            assert g.donor_shard != g.recipient_shard
        assert (
            a.report.scheduler_stats["cross_shard_grants"] == len(a.grants)
        )
        assert (
            a.report.scheduler_stats["cross_shard_releases"] == len(a.grants)
        )

    def test_platform_faults_apply_sharded(self, workload, config):
        schedule = FaultSchedule([
            CoreFail(units.us(500), core_id=1),
            CoreRecover(units.ms(1), core_id=1),
        ])
        run = run_sharded(
            workload, self._laps(), config, shards=2, workers=1,
            window_ns=units.us(250), schedule=schedule,
        )
        assert run.report.generated == workload.num_packets

    def test_per_service_counts_scatter_to_global_ids(
        self, workload, config
    ):
        run = run_sharded(workload, self._laps(), config, shards=2,
                          workers=1, window_ns=units.us(200))
        assert len(run.report.generated_per_service) == 4
        assert sum(run.report.generated_per_service) == run.report.generated


class TestRejections:
    def test_global_load_scheduler_rejected(self, workload, config):
        with pytest.raises(SimulationError, match="neither sharding mode"):
            run_sharded(workload, make_scheduler("fcfs"), config, shards=2)

    def test_guarded_static_scheduler_rejected(self, workload, config):
        # afs routes by a static bucket map until a queue overloads,
        # then consults global occupancy — not partitionable without
        # changing results
        with pytest.raises(SimulationError, match="neither sharding mode"):
            run_sharded(workload, make_scheduler("afs"), config, shards=2)

    def test_reassign_drain_with_platform_faults_rejected(
        self, workload, config
    ):
        schedule = FaultSchedule([CoreFail(units.us(300), core_id=2)])
        with pytest.raises(ConfigError, match="drain_policy"):
            run_sharded(
                workload, StaticHashScheduler(), config, shards=2,
                schedule=schedule, drain_policy="reassign",
            )

    def test_more_shards_than_cores_rejected(self, workload, config):
        with pytest.raises(ConfigError):
            run_sharded(
                workload, StaticHashScheduler(), config,
                shards=NUM_CORES + 1,
            )

    def test_more_shards_than_services_rejected(self, workload, config):
        with pytest.raises(ConfigError):
            run_sharded(
                workload, LAPSScheduler(LAPSConfig(num_services=4)),
                config, shards=5,
            )

    def test_bound_scheduler_rejected(self, workload, config, baseline_hash):
        sched = StaticHashScheduler()
        simulate(workload, sched, config)  # binds it
        with pytest.raises(ConfigError, match="unbound"):
            run_sharded(workload, sched, config, shards=2)

    def test_probe_with_shards_rejected(self, workload, config):
        from repro.obs import TelemetryProbe

        with pytest.raises(SimulationError, match="probes"):
            simulate(
                workload, StaticHashScheduler(), config,
                probe=TelemetryProbe(units.us(100)), shards=2,
            )

    def test_zero_shards_rejected(self, workload, config):
        with pytest.raises(ConfigError):
            run_sharded(workload, StaticHashScheduler(), config, shards=0)


class TestTopologyAndManifest:
    def test_plan_topology_cores(self):
        topo = plan_topology("cores", 3, 8, 4)
        assert [len(g) for g in topo.core_groups] == [3, 3, 2]
        assert sorted(c for g in topo.core_groups for c in g) == list(range(8))

    def test_plan_topology_services(self):
        topo = plan_topology("services", 2, 8, 4, window_ns=units.ms(1))
        assert [list(g) for g in topo.service_groups] == [[0, 1], [2, 3]]
        assert topo.window_ns == units.ms(1)

    def test_manifest_block_round_trips(self, workload, config):
        run = run_sharded(
            workload, StaticHashScheduler(), config, shards=2, workers=1,
            source_fingerprint="abc123",
        )
        block = run.manifest_dict()
        assert block["mode"] == "cores"
        assert block["num_shards"] == 2
        assert block["workers"] == 1
        assert block["source_fingerprint"] == "abc123"
        manifest = RunManifest.capture(config=config, sharding=block)
        again = RunManifest.from_dict(manifest.to_dict())
        assert again.sharding == block
