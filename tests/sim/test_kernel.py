"""Tests for the steppable kernel: stepping, observers, checkpoint/resume,
drain-phase edge cases and run-to-run determinism."""

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import SimulationError
from repro.faults.events import CoreFail, CoreRecover, CoreSlowdown, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.net.service import Service, ServiceSet
from repro.obs import ProgressSampler, QueueOccupancySampler, TelemetryProbe
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.kernel import CHECKPOINT_VERSION, Checkpoint, SimKernel
from repro.sim.source import StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import Workload, build_workload
from repro.trace.synthetic import preset_trace


# ----------------------------------------------------------------------
# fixtures / builders
# ----------------------------------------------------------------------
def queue_probe(period_ns):
    """Queue depths plus cumulative progress counters."""
    return TelemetryProbe(period_ns, [QueueOccupancySampler(), ProgressSampler()])


def manual_workload(arrivals, flows, services=None, num_services=1):
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
        size_bytes=np.asarray([64] * n, dtype=np.int32),
        flow_hash=flows.copy(),
        seq=seq,
        num_flows=num_flows,
        num_services=num_services,
        duration_ns=int(arrivals[-1]) + 1 if n else 1,
    )


def small_config(**kw):
    svc = ServiceSet([Service(0, "s", 1000)])  # 1 us per packet
    kw.setdefault("num_cores", 4)
    kw.setdefault("services", svc)
    return SimConfig(**kw)


def trace_workload(num_packets=4_000, duration_ns=units.ms(1), seed=0):
    """A realistic overloaded workload (drops + migrations happen)."""
    trace = preset_trace("caida-1", num_packets=num_packets)
    return build_workload(
        [trace], [HoltWintersParams(a=8e6)], duration_ns=duration_ns, seed=seed
    )


def laps(seed=3):
    return LAPSScheduler(LAPSConfig(num_services=1), rng=seed)


# ----------------------------------------------------------------------
class TestKernelEquivalence:
    """The kernel in any drive mode == the one-shot simulate()."""

    def test_run_matches_simulate(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        via_simulate = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        assert kernel.run() == via_simulate
        assert kernel.finished

    def test_run_until_then_run(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        assert kernel.now_ns == mid
        assert not kernel.finished
        assert kernel.run() == expected

    def test_many_arbitrary_horizons(self):
        wl = trace_workload(num_packets=2_000)
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        last = int(wl.arrival_ns[-1])
        rng = np.random.default_rng(11)
        for t in sorted(rng.integers(0, last, size=17).tolist()):
            kernel.run_until(t)
        assert kernel.run() == expected

    def test_step_is_monotone_and_completes(self):
        wl = manual_workload([0, 100, 2500, 2500], [0, 1, 0, 1])
        cfg = small_config(num_cores=2)
        expected = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        times = []
        while (t := kernel.step()) is not None:
            times.append(t)
        assert times == sorted(times)
        assert kernel.finalize() == expected

    def test_run_until_rejects_past_horizon(self):
        wl = manual_workload([0, 100], [0, 1])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        kernel.run_until(500)
        with pytest.raises(SimulationError, match="behind current time"):
            kernel.run_until(100)

    def test_finished_kernel_refuses_further_work(self):
        wl = manual_workload([0], [0])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.run()
        with pytest.raises(SimulationError):
            kernel.run_until(units.ms(1))
        with pytest.raises(SimulationError):
            kernel.checkpoint()


# ----------------------------------------------------------------------
class TestObservers:
    def test_one_probe_per_kernel(self):
        kernel = SimKernel(small_config(), StaticHashScheduler(),
                           manual_workload([0], [0]))
        kernel.attach_probe(queue_probe(100))
        with pytest.raises(SimulationError, match="at most one probe"):
            kernel.attach_probe(queue_probe(100))

    def test_observer_attached_mid_run_is_honoured_or_refused(self):
        """A probe or injector attached between advances takes effect
        from that instant, or the attach raises: it is never silently
        ignored.  hash-static drains spans until the attach, so the
        compiled loop must pick the injector up."""
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        last = int(wl.arrival_ns[-1])
        mid = last // 4
        schedule = FaultSchedule([
            CoreFail(last // 2, core_id=2),
            CoreRecover(3 * last // 4, core_id=2),
        ])
        expected = simulate(wl, StaticHashScheduler(), cfg,
                            injector=FaultInjector(schedule))
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        kernel.run_until(mid)
        assert kernel.span_stats["packets_spanned"] > 0
        probe = queue_probe(units.us(50))
        kernel.attach_probe(probe)
        injector = FaultInjector(schedule)
        kernel.attach_injector(injector)
        assert kernel.run() == expected
        assert injector.events_applied == 2
        assert probe.num_samples > 0 and min(probe.times_ns) >= mid

        # a schedule that starts in the run's past is refused whole
        late = SimKernel(cfg, StaticHashScheduler(), wl)
        late.run_until(last // 2 + 1)
        with pytest.raises(SimulationError, match="before the run's current time"):
            late.attach_injector(FaultInjector(schedule))
        assert late.injector is None
        assert late.run() == simulate(wl, StaticHashScheduler(), cfg)


    def test_injector_attached_before_the_next_pending_event(self):
        """An advance leaves the heap's causality floor at the last
        event it popped, never at the next pending one, so a fault that
        falls between the horizon and the next completion still binds
        and acts at its own instant."""
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        last = int(wl.arrival_ns[-1])
        kernel = SimKernel(cfg, FCFSScheduler(), wl)
        st = kernel.state
        # advance to the first completion: the advance pops it and
        # stops at the next pending event, later than the horizon
        kernel.run_until(int(wl.arrival_ns[0]))
        mid = st.heap[0][0]
        kernel.run_until(mid)
        assert st.last_pop_ns == kernel.now_ns == mid
        nxt = st.heap[0][0]
        assert nxt > mid + 1
        schedule = FaultSchedule([
            CoreFail(mid + 1, core_id=0),
            CoreRecover(last // 2, core_id=0),
        ])
        expected = simulate(wl, FCFSScheduler(), cfg,
                            injector=FaultInjector(schedule))
        injector = FaultInjector(schedule)
        kernel.attach_injector(injector)
        for t_ns in (nxt, last // 3, last // 2, last):
            kernel.run_until(t_ns)
            assert st.last_pop_ns <= kernel.now_ns
        assert kernel.run() == expected
        assert injector.events_applied == 2


# ----------------------------------------------------------------------
class TestCheckpointResume:
    def _roundtrip(self, wl, cfg, make_sched, make_injector=None):
        """Pause mid-trace, serialize, resume; report must equal the
        uninterrupted run's bit for bit."""
        uninterrupted = simulate(
            wl, make_sched(), cfg,
            injector=make_injector() if make_injector else None,
        )
        kernel = SimKernel(cfg, make_sched(), wl)
        if make_injector:
            kernel.attach_injector(make_injector())
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        raw = kernel.checkpoint().to_bytes()
        ckpt = Checkpoint.from_bytes(raw)
        assert ckpt.time_ns == mid
        resumed = SimKernel.resume(ckpt, cfg, wl)
        assert resumed.now_ns == mid
        assert resumed.run() == uninterrupted

    def test_roundtrip_stateless_scheduler(self):
        self._roundtrip(
            trace_workload(), small_config(num_cores=8), StaticHashScheduler
        )

    def test_roundtrip_laps(self):
        # LAPS carries placement state (AFD caches, pin table, core
        # sets); the single-blob pickle must preserve it exactly
        self._roundtrip(trace_workload(), small_config(num_cores=8), laps)

    def test_roundtrip_with_faults(self):
        wl = trace_workload()
        last = int(wl.arrival_ns[-1])
        schedule = FaultSchedule([
            CoreFail(last // 4, core_id=2),
            CoreSlowdown(last // 3, core_id=1, factor=2.0),
            CoreRecover(3 * last // 4, core_id=2),
        ])
        self._roundtrip(
            wl,
            small_config(num_cores=8),
            FCFSScheduler,
            make_injector=lambda: FaultInjector(schedule, drain_policy="reassign"),
        )

    def test_checkpoint_before_any_advance(self):
        wl = trace_workload(num_packets=1_000)
        cfg = small_config(num_cores=8)
        expected = simulate(wl, laps(), cfg)
        kernel = SimKernel(cfg, laps(), wl)
        resumed = SimKernel.resume(kernel.checkpoint(), cfg, wl)
        assert resumed.run() == expected

    def test_resumed_kernel_keeps_the_checked_fingerprint(self, monkeypatch):
        # resume verified the workload fingerprint; the first checkpoint
        # after it must not regenerate the stream to compute it again
        cfg = small_config(num_cores=8)
        source = StreamingSource(
            [preset_trace("caida-1", num_packets=2_000)],
            [HoltWintersParams(a=8e6)], units.ms(1), seed=0, chunk_size=256,
        )
        kernel = SimKernel(cfg, StaticHashScheduler(), source)
        kernel.run_until(units.us(500))
        ckpt = kernel.checkpoint()
        resumed = SimKernel.resume(ckpt, cfg, source)
        calls = []
        real = StreamingSource.fingerprint
        monkeypatch.setattr(
            StreamingSource, "fingerprint",
            lambda self: calls.append(self) or real(self),
        )
        resumed.run_until(units.us(700))
        assert resumed.checkpoint().workload_fingerprint == ckpt.workload_fingerprint
        assert calls == []

    def test_config_fingerprint_mismatch(self):
        wl = manual_workload([0, 100], [0, 1])
        kernel = SimKernel(small_config(), StaticHashScheduler(), wl)
        ckpt = kernel.checkpoint()
        with pytest.raises(SimulationError, match="different SimConfig"):
            SimKernel.resume(ckpt, small_config(num_cores=2), wl)

    def test_workload_fingerprint_mismatch(self):
        wl = manual_workload([0, 100], [0, 1])
        cfg = small_config()
        ckpt = SimKernel(cfg, StaticHashScheduler(), wl).checkpoint()
        other = manual_workload([0, 100, 200], [0, 1, 0])
        with pytest.raises(SimulationError, match="different workload"):
            SimKernel.resume(ckpt, cfg, other)

    def test_version_mismatch(self):
        wl = manual_workload([0], [0])
        ckpt = SimKernel(small_config(), StaticHashScheduler(), wl).checkpoint()
        stale = Checkpoint(
            version=CHECKPOINT_VERSION + 1,
            time_ns=ckpt.time_ns,
            blob=ckpt.blob,
            config_fingerprint=ckpt.config_fingerprint,
            workload_fingerprint=ckpt.workload_fingerprint,
        )
        with pytest.raises(SimulationError, match="version"):
            Checkpoint.from_bytes(stale.to_bytes())
        with pytest.raises(SimulationError, match="version"):
            SimKernel.resume(stale, small_config(), wl)

    def test_from_bytes_rejects_foreign_pickle(self):
        import pickle

        with pytest.raises(SimulationError, match="not a simulation checkpoint"):
            Checkpoint.from_bytes(pickle.dumps({"hello": 1}))

    @pytest.mark.parametrize("raw", [b"", b"garbage"], ids=["empty", "garbage"])
    def test_from_bytes_rejects_non_pickle(self, raw):
        with pytest.raises(SimulationError, match="not a simulation checkpoint") as err:
            Checkpoint.from_bytes(raw)
        assert err.value.__cause__ is not None

    def test_from_bytes_rejects_truncated_checkpoint(self):
        wl = manual_workload([0, 100], [0, 1])
        raw = SimKernel(small_config(), StaticHashScheduler(), wl).checkpoint().to_bytes()
        with pytest.raises(SimulationError, match="not a simulation checkpoint") as err:
            Checkpoint.from_bytes(raw[: len(raw) // 2])
        assert err.value.__cause__ is not None

    def test_resumed_probe_restarts_sampling(self):
        # probes are not checkpointed; a fresh one attached at resume
        # samples the remainder without disturbing the outcome
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        expected = simulate(wl, StaticHashScheduler(), cfg)
        kernel = SimKernel(cfg, StaticHashScheduler(), wl)
        kernel.attach_probe(queue_probe(units.us(50)))
        mid = int(wl.arrival_ns[wl.num_packets // 2])
        kernel.run_until(mid)
        probe2 = queue_probe(units.us(50))
        resumed = SimKernel.resume(kernel.checkpoint(), cfg, wl, probe=probe2)
        assert resumed.run() == expected
        assert probe2.num_samples > 0


# ----------------------------------------------------------------------
class TestDrainEdgeCases:
    def test_probe_period_longer_than_drain(self):
        # the drain stepper must not spin or skip the final sample when
        # the sampling period exceeds the whole drain window
        wl = manual_workload([0, 0, 0], [0, 1, 2])
        cfg = small_config(num_cores=1, queue_capacity=8, drain_ns=3000)
        probe = queue_probe(units.ms(10))  # period >> drain_ns
        rep = simulate(wl, StaticHashScheduler(), cfg, probe=probe)
        assert rep.departed == 3  # back-to-back service ends at 3000
        # one sample: the t=0 arrival; the drain-end call lands in the
        # same (huge) period, so the probe correctly dedupes it
        assert probe.times_ns == [0]

    def test_empty_workload(self):
        wl = manual_workload([], [])
        rep = simulate(wl, StaticHashScheduler(), small_config())
        assert rep.generated == 0 and rep.departed == 0 and rep.dropped == 0
        assert rep.out_of_order == 0

    def test_empty_workload_with_probe(self):
        wl = manual_workload([], [])
        probe = queue_probe(units.us(1))
        rep = simulate(wl, StaticHashScheduler(), small_config(), probe=probe)
        assert rep.departed == 0
        assert probe.num_samples >= 1  # the final drain-end sample

    def test_completion_exactly_at_drain_end_departs(self):
        # service takes 1000 ns; arrival at 0 completes at exactly
        # last_arrival + drain_ns == 1000: inclusive bound, departs
        wl = manual_workload([0], [0])
        cfg = small_config(num_cores=1, drain_ns=1000)
        rep = simulate(wl, StaticHashScheduler(), cfg)
        assert rep.departed == 1

    def test_completion_past_drain_end_abandoned(self):
        wl = manual_workload([0], [0])
        cfg = small_config(num_cores=1, drain_ns=999)
        rep = simulate(wl, StaticHashScheduler(), cfg)
        # in flight past the bound: neither departed nor dropped
        assert rep.departed == 0 and rep.dropped == 0
        assert rep.generated == 1


# ----------------------------------------------------------------------
class TestDeterminism:
    def test_back_to_back_runs_identical(self):
        wl = trace_workload()
        cfg = small_config(num_cores=8)
        first = simulate(wl, laps(), cfg)
        second = simulate(wl, laps(), cfg)
        assert first == second  # dataclass: field-for-field

    def test_back_to_back_fault_runs_identical(self):
        wl = trace_workload()
        last = int(wl.arrival_ns[-1])
        cfg = small_config(num_cores=8)
        schedule = FaultSchedule([
            CoreFail(last // 3, core_id=0),
            CoreRecover(2 * last // 3, core_id=0),
        ])

        def once():
            return simulate(
                wl, FCFSScheduler(), cfg,
                injector=FaultInjector(schedule, drain_policy="reassign"),
            )

        assert once() == once()
