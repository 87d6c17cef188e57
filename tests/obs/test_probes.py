"""Tests for the composable telemetry probe framework."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigError
from repro.obs import (
    FaultStateSampler,
    ProgressSampler,
    QueueOccupancySampler,
    ReorderSampler,
    SchedulerSampler,
    TelemetryProbe,
)
from repro.schedulers.fcfs import FCFSScheduler
from repro.sim.system import simulate


class FakeQueues:
    def __init__(self, occ):
        self._occ = occ

    def occupancies(self):
        return list(self._occ)


class FakeMetrics:
    def __init__(self):
        self.generated = 0
        self.dropped = 0
        self.departed = 0
        self.generated_per_service = [0]
        self.dropped_per_service = [0]


class FakeView:
    """The two attributes of the sampler view protocol that the queue
    and progress samplers read (a running kernel has all five)."""

    def __init__(self, occ, metrics):
        self.queues = FakeQueues(occ)
        self.metrics = metrics


class TestPeriodSemantics:
    def test_invalid_period(self):
        with pytest.raises(ConfigError):
            TelemetryProbe(0)

    def test_one_sample_per_call_no_backfill(self):
        probe = TelemetryProbe(100, [ProgressSampler()])
        m = FakeMetrics()
        probe.maybe_sample(250, FakeView([0], m))
        assert probe.times_ns == [250]
        m.dropped = 9
        probe.maybe_sample(260, FakeView([0], m))   # same period
        assert probe.num_samples == 1
        probe.maybe_sample(301, FakeView([0], m))
        assert probe.times_ns == [250, 301]
        assert [r["dropped"] for r in probe.records] == [0, 9]

    def test_samples_once_per_boundary(self):
        probe = TelemetryProbe(100, [ProgressSampler()])
        for t in (0, 120, 130, 200):   # 130 shares 120's period
            probe.maybe_sample(t, FakeView([0], FakeMetrics()))
        assert probe.times_ns == [0, 120, 200]


class TestSamplers:
    def test_queue_occupancy_columns(self):
        probe = TelemetryProbe(10, [QueueOccupancySampler()])
        probe.maybe_sample(0, FakeView([2, 5], FakeMetrics()))
        row = probe.records[0]
        assert row["occupancy"] == [2, 5]
        assert row["occ_max"] == 5 and row["occ_min"] == 2

    def test_occupancy_matrix(self):
        probe = TelemetryProbe(10, [QueueOccupancySampler()])
        assert probe.occupancy_matrix().shape == (0, 0)
        probe.maybe_sample(0, FakeView([3, 7], FakeMetrics()))
        probe.maybe_sample(10, FakeView([1, 0], FakeMetrics()))
        np.testing.assert_array_equal(probe.occupancy_matrix(), [[3, 7], [1, 0]])

    def test_unbound_rich_samplers_degrade_to_empty(self):
        """Scheduler/reorder samplers need a view with those attributes
        (the kernel); without them they contribute nothing rather than
        crashing."""
        probe = TelemetryProbe(10, [SchedulerSampler(), ReorderSampler()])
        probe.maybe_sample(0, FakeView([0], FakeMetrics()))
        assert probe.records == [{"t_ns": 0}]

    def test_per_service_progress(self):
        probe = TelemetryProbe(10, [ProgressSampler(per_service=True)])
        probe.maybe_sample(0, FakeView([0], FakeMetrics()))
        assert probe.records[0]["dropped_per_service"] == [0]

    def test_column_accessor(self):
        probe = TelemetryProbe(10, [ProgressSampler()])
        m = FakeMetrics()
        probe.maybe_sample(0, FakeView([0], m))
        m.departed = 4
        probe.maybe_sample(10, FakeView([0], m))
        np.testing.assert_array_equal(probe.column("departed"), [0.0, 4.0])


class TestEndToEnd:
    def test_queue_and_progress_series(self, small_workload, small_config):
        probe = TelemetryProbe(
            units.us(100), [QueueOccupancySampler(), ProgressSampler()]
        )
        rep = simulate(small_workload, FCFSScheduler(), small_config, probe=probe)
        assert probe.num_samples > 5
        assert probe.occupancy_matrix().shape[1] == small_config.num_cores
        # sample times are strictly increasing (one row per boundary)
        assert all(np.diff(probe.times_ns) > 0)
        # cumulative counters are non-decreasing
        assert all(np.diff(probe.column("dropped")) >= 0)
        assert all(np.diff(probe.column("departed")) >= 0)
        assert probe.column("dropped")[-1] <= rep.dropped

    def test_full_battery_in_simulation(self, small_workload, small_config):
        probe = TelemetryProbe(units.us(100))
        rep = simulate(small_workload, FCFSScheduler(), small_config, probe=probe)
        assert probe.num_samples > 5
        row = probe.records[-1]
        # all four default samplers contributed (the kernel is the view)
        assert "occupancy" in row and "departed" in row
        assert "out_of_order" in row and "in_flight_gaps" in row
        assert row["departed"] == rep.departed
        assert row["out_of_order"] == rep.out_of_order

    def test_drain_phase_covered(self, small_workload, small_config):
        probe = TelemetryProbe(units.us(100))
        simulate(small_workload, FCFSScheduler(), small_config, probe=probe)
        last_arrival = int(small_workload.arrival_ns[-1])
        drain_rows = [r for r in probe.records if r["t_ns"] > last_arrival]
        assert drain_rows, "no samples during the drain phase"
        # in-flight gaps drain to zero and queues empty out
        assert drain_rows[-1]["in_flight_gaps"] == 0
        assert sum(drain_rows[-1]["occupancy"]) == 0

    def test_scheduler_counters_sampled(self, small_workload, small_config):
        from repro.core.laps import LAPSConfig, LAPSScheduler

        probe = TelemetryProbe(units.us(100))
        sched = LAPSScheduler(LAPSConfig(num_services=1), rng=0)
        simulate(small_workload, sched, small_config, probe=probe)
        row = probe.records[-1]
        assert "sched_migrations_installed" in row
        assert "sched_core_requests" in row


class TestFaultStateSampler:
    def test_without_injector_contributes_nothing(self):
        probe = TelemetryProbe(10, [FaultStateSampler()])
        probe.maybe_sample(0, FakeView([0], FakeMetrics()))
        assert probe.records == [{"t_ns": 0}]

    def test_fault_state_sampled_during_run(self, small_workload, small_config):
        from repro.faults import CoreFail, FaultInjector, FaultSchedule

        probe = TelemetryProbe(units.us(100))
        schedule = FaultSchedule([CoreFail(units.ms(1), core_id=3)])
        simulate(
            small_workload, FCFSScheduler(), small_config, probe=probe,
            injector=FaultInjector(schedule),
        )
        before = [r for r in probe.records if r["t_ns"] < units.ms(1)]
        after = [r for r in probe.records if r["t_ns"] > units.ms(1)]
        assert before and before[0]["fault_cores_down"] == 0
        assert after and after[-1]["fault_cores_down"] == 1
        assert after[-1]["fault_events_applied"] == 1
