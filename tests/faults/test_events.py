"""Tests for declarative fault events and schedules."""

import numpy as np
import pytest

from repro import units
from repro.errors import ConfigError
from repro.faults.events import (
    CoreFail,
    CoreRecover,
    CoreSlowdown,
    FaultSchedule,
    ServiceFlap,
    TrafficSurge,
    core_flap,
)


class TestEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigError):
            CoreFail(-1, core_id=0)

    def test_slowdown_factor_below_one_rejected(self):
        with pytest.raises(ConfigError):
            CoreSlowdown(0, core_id=0, factor=0.5)

    def test_surge_factor_must_exceed_one(self):
        with pytest.raises(ConfigError):
            TrafficSurge(0, service_id=0, factor=1.0, duration_ns=100)

    def test_flap_duty_bounds(self):
        with pytest.raises(ConfigError):
            ServiceFlap(0, service_id=0, duty=1.0)

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ConfigError, match="core_id must be an integer, got True"):
            CoreFail(0, core_id=True)

    def test_numpy_integers_accepted(self):
        ev = CoreFail(np.int64(100), core_id=np.int32(2))
        assert ev.time_ns == 100 and ev.core_id == 2

    def test_windowed_slowdown_expands_to_apply_and_restore(self):
        ev = CoreSlowdown(100, core_id=2, factor=3.0, duration_ns=50)
        apply, restore = ev.expand()
        assert apply.factor == 3.0 and apply.time_ns == 100
        assert restore.factor == 1.0 and restore.time_ns == 150

    def test_open_slowdown_expands_to_itself(self):
        ev = CoreSlowdown(100, core_id=2, factor=3.0)
        assert ev.expand() == [ev]


class TestScheduleConstruction:
    def test_events_time_sorted(self):
        s = FaultSchedule([
            CoreSlowdown(500, core_id=1, factor=2.0),
            CoreFail(100, core_id=0),
            CoreRecover(300, core_id=0),
        ])
        assert [ev.time_ns for ev in s] == [100, 300, 500]

    def test_recover_without_fail_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([CoreRecover(100, core_id=0)])

    def test_double_fail_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule([CoreFail(100, core_id=0), CoreFail(200, core_id=0)])

    def test_fail_recover_fail_allowed(self):
        s = FaultSchedule(core_flap(0, 100, down_ns=50, up_ns=50, cycles=3))
        assert len(s) == 6

    def test_non_event_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule(["not an event"])

    def test_platform_traffic_split(self):
        s = FaultSchedule([
            CoreFail(100, core_id=0),
            TrafficSurge(200, service_id=1, factor=2.0, duration_ns=50),
        ])
        assert len(s.platform_events()) == 1
        assert len(s.traffic_events()) == 1

    def test_platform_events_expand_windowed_slowdowns(self):
        s = FaultSchedule([CoreSlowdown(100, core_id=0, factor=2.0,
                                        duration_ns=50)])
        times = [ev.time_ns for ev in s.platform_events()]
        assert times == [100, 150]

    def test_first_event_ns(self):
        assert FaultSchedule().first_event_ns() is None
        s = FaultSchedule([CoreFail(700, core_id=0)])
        assert s.first_event_ns() == 700


class TestWindows:
    def test_fail_window_closes_at_recover(self):
        s = FaultSchedule([
            CoreFail(100, core_id=0),
            CoreRecover(400, core_id=0),
        ])
        windows = s.windows(horizon_ns=1000)
        assert len(windows) == 1  # the recover is folded into the fail
        ev, start, end = windows[0]
        assert isinstance(ev, CoreFail)
        assert (start, end) == (100, 400)

    def test_unrecovered_fail_extends_to_horizon(self):
        s = FaultSchedule([CoreFail(100, core_id=0)])
        [(ev, start, end)] = s.windows(horizon_ns=1000)
        assert (start, end) == (100, 1000)

    def test_windows_clip_to_horizon(self):
        s = FaultSchedule([TrafficSurge(100, service_id=0, factor=2.0,
                                        duration_ns=10_000)])
        [(_, start, end)] = s.windows(horizon_ns=1000)
        assert end == 1000


class TestPlatformValidation:
    def test_core_out_of_range(self):
        s = FaultSchedule([CoreFail(0, core_id=9)])
        with pytest.raises(ConfigError):
            s.validate_platform(num_cores=8, num_services=4)

    def test_service_out_of_range(self):
        s = FaultSchedule([TrafficSurge(0, service_id=4, factor=2.0,
                                        duration_ns=10)])
        with pytest.raises(ConfigError):
            s.validate_platform(num_cores=8, num_services=4)

    def test_failing_every_core_rejected(self):
        s = FaultSchedule([CoreFail(i, core_id=i) for i in range(2)])
        with pytest.raises(ConfigError):
            s.validate_platform(num_cores=2, num_services=1)

    def test_staggered_failures_with_recovery_ok(self):
        s = FaultSchedule([
            CoreFail(0, core_id=0),
            CoreRecover(10, core_id=0),
            CoreFail(20, core_id=1),
        ])
        s.validate_platform(num_cores=2, num_services=1)


class TestSerialisation:
    def test_json_roundtrip(self):
        s = FaultSchedule([
            CoreFail(100, core_id=3),
            CoreRecover(500, core_id=3),
            CoreSlowdown(200, core_id=1, factor=2.5, duration_ns=300),
            TrafficSurge(50, service_id=2, factor=3.0, duration_ns=400),
            ServiceFlap(75, service_id=0, period_ns=100, cycles=2, duty=0.3),
        ])
        assert FaultSchedule.from_json(s.to_json()).events == s.events

    def test_from_json_path(self, tmp_path):
        s = FaultSchedule([CoreFail(100, core_id=0)])
        path = tmp_path / "spec.json"
        s.to_json(path)
        assert FaultSchedule.from_json(path).events == s.events

    def test_unknown_type_rejected(self):
        with pytest.raises(
            ConfigError,
            match=r"^fault schedule: event 0: unknown fault event type 'meteor'",
        ):
            FaultSchedule.from_json('{"events": [{"type": "meteor"}]}')


#: bad ``--faults`` files: (contents, the ConfigError's message with
#: the file's path as ``{path}``); None contents means no file at all
BAD_SPECS = {
    "missing-file": (
        None,
        "cannot read fault schedule {path}: No such file or directory",
    ),
    "truncated": (
        '{"events": [',
        "fault schedule {path}: invalid JSON at line 1 column 13: "
        "Expecting value",
    ),
    "top-level-list": (
        "[]",
        'fault schedule {path}: expected a JSON object with an "events" list',
    ),
    "events-not-list": (
        '{"events": 5}',
        'fault schedule {path}: expected a JSON object with an "events" list',
    ),
    "events-missing": (
        "{}",
        'fault schedule {path}: expected a JSON object with an "events" list',
    ),
    "event-not-object": (
        '{"events": [5]}',
        "fault schedule {path}: event 0 must be a JSON object, got int",
    ),
    "missing-field": (
        '{"events": [{"type": "core_fail"}]}',
        "fault schedule {path}: event 0 (core_fail): CoreFail.__init__() "
        "missing 1 required positional argument: 'time_ns'",
    ),
    "wrong-type": (
        '{"events": [{"type": "core_fail", "time_ns": "x", "core_id": 1}]}',
        "fault schedule {path}: event 0 (core_fail): time_ns must be an "
        "integer, got 'x'",
    ),
    "float-core-id": (
        '{"events": [{"type": "core_fail", "time_ns": 100000, "core_id": 1.5}]}',
        "fault schedule {path}: event 0 (core_fail): core_id must be an "
        "integer, got 1.5",
    ),
    "float-time": (
        '{"events": [{"type": "core_fail", "time_ns": 100000.5, "core_id": 1}]}',
        "fault schedule {path}: event 0 (core_fail): time_ns must be an "
        "integer, got 100000.5",
    ),
    "float-duration": (
        '{"events": [{"type": "core_slowdown", "time_ns": 10, "core_id": 1, '
        '"factor": 2.0, "duration_ns": 100.5}]}',
        "fault schedule {path}: event 0 (core_slowdown): duration_ns must be "
        "an integer, got 100.5",
    ),
    "unknown-field": (
        '{"events": [{"type": "core_fail", "time_ns": 10, "core_id": 1, '
        '"bogus": 3}]}',
        "fault schedule {path}: event 0 (core_fail): unknown field(s) "
        "bogus; known: time_ns, core_id",
    ),
    "second-event-bad": (
        '{"events": [{"type": "core_fail", "time_ns": 10, "core_id": 1}, '
        '{"type": "core_recover", "time_ns": -5, "core_id": 1}]}',
        "fault schedule {path}: event 1 (core_recover): event time must "
        "be >= 0, got -5",
    ),
}


def write_spec(tmp_path, case):
    """Write *case*'s file; returns its path and the expected message."""
    text, message = BAD_SPECS[case]
    path = tmp_path / "faults.json"
    if text is not None:
        path.write_text(text)
    return path, message.format(path=path)


class TestFromJsonErrors:
    """A bad schedule file is a ConfigError that says where, never a
    raw JSONDecodeError/TypeError/AttributeError or a silently dropped
    field."""

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_bad_file_is_a_config_error(self, tmp_path, case):
        path, message = write_spec(tmp_path, case)
        with pytest.raises(ConfigError) as err:
            FaultSchedule.from_json(path)
        assert str(err.value) == message
        if case in ("missing-file", "truncated"):
            # the OSError / JSONDecodeError stays chained
            assert isinstance(err.value.__cause__, (OSError, ValueError))


class TestRandomSchedules:
    def test_same_seed_same_schedule(self):
        kw = dict(duration_ns=units.ms(10), num_cores=16, num_services=4)
        a = FaultSchedule.random(42, **kw)
        b = FaultSchedule.random(42, **kw)
        assert a.events == b.events

    def test_different_seeds_differ(self):
        kw = dict(duration_ns=units.ms(10), num_cores=16, num_services=4,
                  num_events=8)
        assert (FaultSchedule.random(1, **kw).events
                != FaultSchedule.random(2, **kw).events)

    def test_random_schedules_are_platform_valid(self):
        for seed in range(10):
            s = FaultSchedule.random(
                seed, duration_ns=units.ms(10), num_cores=8, num_services=4,
                num_events=10,
            )
            s.validate_platform(num_cores=8, num_services=4)

    def test_event_times_inside_run(self):
        s = FaultSchedule.random(
            7, duration_ns=units.ms(10), num_cores=8, num_services=4,
            num_events=12,
        )
        assert all(0 <= ev.time_ns <= units.ms(10) for ev in s)


class TestRandomConcurrencyCap:
    KW = dict(duration_ns=units.ms(10), num_cores=8, num_services=4,
              num_events=20)

    def test_zero_cap_means_no_core_failures(self):
        """Regression: ``max_concurrent_failures=0`` used to be
        coalesced into the default (half the cores) by an ``or``
        fallback, so "no core failures" schedules still failed cores."""
        for seed in range(10):
            s = FaultSchedule.random(
                seed, max_concurrent_failures=0, **self.KW
            )
            assert not any(isinstance(ev, CoreFail) for ev in s)
            assert len(s.events) > 0  # other event kinds still occur

    def test_explicit_cap_bounds_failed_cores(self):
        for seed in range(10):
            s = FaultSchedule.random(
                seed, max_concurrent_failures=2, **self.KW
            )
            fails = {ev.core_id for ev in s if isinstance(ev, CoreFail)}
            assert len(fails) <= 2

    def test_negative_cap_rejected(self):
        with pytest.raises(ConfigError):
            FaultSchedule.random(
                0, max_concurrent_failures=-1, **self.KW
            )
