"""Tests for the batched multi-run executor."""

import numpy as np

from repro.experiments.batch import BatchRun, RunSpec, WorkloadSpec, run_batch
from repro.net.service import Service, ServiceSet
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.system import simulate
from repro.sim.workload import Workload

#: builds performed by :func:`_workload` in this process (grouping probe)
_BUILDS: list[tuple] = []


def _workload(n: int, spacing_ns: int = 500) -> Workload:
    """Module-level (picklable) deterministic workload factory."""
    _BUILDS.append((n, spacing_ns))
    arrivals = np.arange(n, dtype=np.int64) * spacing_ns
    flows = np.arange(n, dtype=np.int64) % 4
    seq = np.arange(n, dtype=np.int64) // 4
    return Workload(
        arrival_ns=arrivals,
        service_id=np.zeros(n, dtype=np.int32),
        flow_id=flows,
        size_bytes=np.full(n, 64, dtype=np.int32),
        flow_hash=flows.copy(),
        seq=seq,
        num_flows=4,
        num_services=1,
        duration_ns=int(arrivals[-1]) + 1 if n else 1,
    )


def _config(num_cores: int = 2) -> SimConfig:
    return SimConfig(
        num_cores=num_cores,
        services=ServiceSet([Service(0, "s", 1000)]),
    )


class TestWorkloadSpec:
    def test_equality_is_by_recipe(self):
        a = WorkloadSpec.of(_workload, n=10, spacing_ns=500)
        b = WorkloadSpec.of(_workload, spacing_ns=500, n=10)  # kwarg order
        c = WorkloadSpec.of(_workload, n=11, spacing_ns=500)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_build(self):
        wl = WorkloadSpec.of(_workload, n=8).build()
        assert wl.num_packets == 8


class TestRunBatch:
    def test_results_in_input_order_with_labels(self):
        wspec = WorkloadSpec.of(_workload, n=20)
        specs = [
            RunSpec(
                workload=wspec,
                scheduler_fn=StaticHashScheduler,
                config_fn=_config,
                label={"i": i},
            )
            for i in range(5)
        ]
        runs = run_batch(specs)
        assert [r.label["i"] for r in runs] == list(range(5))
        assert all(isinstance(r, BatchRun) for r in runs)

    def test_workload_built_once_per_group(self):
        _BUILDS.clear()
        shared = WorkloadSpec.of(_workload, n=12)
        other = WorkloadSpec.of(_workload, n=13)
        specs = [
            RunSpec(workload=shared, scheduler_fn=StaticHashScheduler,
                    config_fn=_config, label={"k": 0}),
            RunSpec(workload=other, scheduler_fn=StaticHashScheduler,
                    config_fn=_config, label={"k": 1}),
            RunSpec(workload=shared, scheduler_fn=FCFSScheduler,
                    config_fn=_config, label={"k": 2}),
            RunSpec(workload=shared, scheduler_fn=StaticHashScheduler,
                    config_fn=_config, label={"k": 3}),
        ]
        runs = run_batch(specs, jobs=1)  # inline: _BUILDS observable
        assert sorted(_BUILDS) == [(12, 500), (13, 500)]  # 2 builds, 4 runs
        assert [r.label["k"] for r in runs] == [0, 1, 2, 3]

    def test_reports_match_direct_simulate(self):
        wspec = WorkloadSpec.of(_workload, n=30)
        spec = RunSpec(
            workload=wspec,
            scheduler_fn=StaticHashScheduler,
            config_fn=_config,
            config_kwargs={"num_cores": 3},
        )
        (run,) = run_batch([spec])
        expected = simulate(_workload(30), StaticHashScheduler(), _config(3))
        assert run.report == expected

    def test_default_config_when_no_factory(self):
        spec = RunSpec(
            workload=WorkloadSpec.of(_workload, n=5),
            scheduler_fn=StaticHashScheduler,
        )
        cfg = spec.build_config()
        assert cfg.num_cores == SimConfig().num_cores
        (run,) = run_batch([spec])
        assert run.report.generated == 5

    def test_empty_batch(self):
        assert run_batch([]) == []

    def test_process_pool_smoke(self):
        specs = [
            RunSpec(
                workload=WorkloadSpec.of(_workload, n=10 + g),
                scheduler_fn=StaticHashScheduler,
                config_fn=_config,
                label={"g": g},
            )
            for g in range(3)
        ]
        runs = run_batch(specs, jobs=2)
        assert [r.label["g"] for r in runs] == [0, 1, 2]
        assert [r.report.generated for r in runs] == [10, 11, 12]

    def test_jobs_invariant_results(self):
        specs = [
            RunSpec(
                workload=WorkloadSpec.of(_workload, n=16 + g),
                scheduler_fn=FCFSScheduler,
                config_fn=_config,
                label={"g": g},
            )
            for g in range(3)
        ]
        inline = run_batch(specs, jobs=1)
        pooled = run_batch(specs, jobs=2)
        assert [r.report for r in inline] == [r.report for r in pooled]


def _fail_injector(core_id: int = 0, at_ns: int = 2000):
    """Module-level (picklable) injector factory for RunSpec tests."""
    from repro.faults.events import CoreFail, FaultSchedule
    from repro.faults.injector import FaultInjector

    return FaultInjector(FaultSchedule([CoreFail(at_ns, core_id=core_id)]))


class TestInjectorSupport:
    def test_no_injector_by_default(self):
        spec = RunSpec(
            workload=WorkloadSpec.of(_workload, n=5),
            scheduler_fn=StaticHashScheduler,
        )
        assert spec.build_injector() is None

    def test_injector_built_and_applied(self):
        wspec = WorkloadSpec.of(_workload, n=40)
        faulted = RunSpec(
            workload=wspec,
            scheduler_fn=StaticHashScheduler,
            config_fn=_config,
            injector_fn=_fail_injector,
            injector_kwargs={"core_id": 0, "at_ns": 2000},
        )
        clean = RunSpec(
            workload=wspec,
            scheduler_fn=StaticHashScheduler,
            config_fn=_config,
        )
        runs = run_batch([faulted, clean])
        expected = simulate(
            _workload(40), StaticHashScheduler(), _config(),
            injector=_fail_injector(core_id=0, at_ns=2000),
        )
        assert runs[0].report == expected
        assert runs[0].report != runs[1].report

    def test_injector_survives_process_pool(self):
        specs = [
            RunSpec(
                workload=WorkloadSpec.of(_workload, n=30 + g),
                scheduler_fn=StaticHashScheduler,
                config_fn=_config,
                injector_fn=_fail_injector,
                label={"g": g},
            )
            for g in range(2)
        ]
        pooled = run_batch(specs, jobs=2)
        inline = run_batch(specs, jobs=1)
        assert [r.report for r in pooled] == [r.report for r in inline]


class TestShardedSpecs:
    def test_sharded_report_matches_single_process(self):
        wspec = WorkloadSpec.of(_workload, n=60)
        single = RunSpec(
            workload=wspec, scheduler_fn=StaticHashScheduler,
            config_fn=_config,
        )
        sharded = RunSpec(
            workload=wspec, scheduler_fn=StaticHashScheduler,
            config_fn=_config, shards=2, shard_workers=1,
        )
        runs = run_batch([single, sharded], jobs=1)
        assert runs[0].report == runs[1].report
        assert runs[0].sharding is None
        assert runs[1].sharding["mode"] == "cores"
        assert runs[1].sharding["num_shards"] == 2

    def test_fingerprint_shared_across_shard_group(self):
        from repro.sim.source import workload_fingerprint

        wspec = WorkloadSpec.of(_workload, n=48)
        specs = [
            RunSpec(
                workload=wspec, scheduler_fn=StaticHashScheduler,
                config_fn=_config, shards=2, shard_workers=1,
                label={"i": i},
            )
            for i in range(2)
        ]
        runs = run_batch(specs, jobs=1)
        prints = [r.sharding["source_fingerprint"] for r in runs]
        # one fingerprint per group, and it is the single-process
        # workload's content hash — the shards were cut from the
        # identical stream
        assert prints[0] == prints[1] == workload_fingerprint(_workload(48))

    def test_sharded_faulted_matches_single_process(self):
        wspec = WorkloadSpec.of(_workload, n=80)
        sharded = RunSpec(
            workload=wspec, scheduler_fn=StaticHashScheduler,
            config_fn=_config, shards=2, shard_workers=1,
            injector_fn=_fail_injector,
            injector_kwargs={"core_id": 0, "at_ns": 2000},
        )
        (run,) = run_batch([sharded], jobs=1)
        expected = simulate(
            _workload(80), StaticHashScheduler(), _config(),
            injector=_fail_injector(core_id=0, at_ns=2000),
        )
        assert run.report == expected
