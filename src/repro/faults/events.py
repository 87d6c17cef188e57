"""Declarative fault and dynamic-traffic events.

The paper's evaluation assumes a static, always-healthy platform; this
module describes the ways a real deployment stops being one.  Events
are small frozen dataclasses with an activation time, composed into a
:class:`FaultSchedule` that the :class:`~repro.faults.FaultInjector`
replays through the simulator's event heap.

Two kinds of event exist:

* **platform** events (:class:`CoreFail`, :class:`CoreRecover`,
  :class:`CoreSlowdown`) mutate the running simulator — they are
  pushed into the completion heap and applied in strict time order;
* **traffic** events (:class:`TrafficSurge`, :class:`ServiceFlap`)
  reshape the *workload* before the run (arrival processes are
  pre-generated arrays), via
  :func:`repro.faults.injector.apply_traffic_events`.  Both transforms
  are monotone per service, so per-flow packet order — and therefore
  the reorder accounting — stays valid.

Schedules serialise to JSON (``--faults spec.json`` on the sim CLI) and
can be generated randomly from a seed for chaos runs; the same seed
always yields the same schedule.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from numbers import Integral
from pathlib import Path

from repro import units
from repro.errors import ConfigError
from repro.util.rng import make_rng

__all__ = [
    "FaultEvent",
    "CoreFail",
    "CoreRecover",
    "CoreSlowdown",
    "TrafficSurge",
    "ServiceFlap",
    "FaultSchedule",
    "core_flap",
]


def _check_int(name: str, value: object) -> None:
    """An id, a time or a count must be an integer: a JSON schedule can
    carry ``1.5`` or ``true`` where one belongs, which would otherwise
    pass the range checks and fail (or round) deep inside a run."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """Base event: something happens at ``time_ns``."""

    time_ns: int

    #: "platform" events go through the event heap; "traffic" events
    #: transform the workload before the run.
    kind = "platform"
    #: JSON tag (set per subclass).
    type_tag = "?"

    def __post_init__(self) -> None:
        _check_int("time_ns", self.time_ns)
        if self.time_ns < 0:
            raise ConfigError(f"event time must be >= 0, got {self.time_ns}")

    @property
    def label(self) -> str:
        return f"{self.type_tag}@{self.time_ns / 1e6:.2f}ms"

    def window_end(self, horizon_ns: int) -> int:
        """End of this event's impact window (default: open-ended)."""
        return horizon_ns

    def expand(self) -> list["FaultEvent"]:
        """Primitive events this one decomposes into (self by default)."""
        return [self]

    def to_dict(self) -> dict:
        d = {"type": self.type_tag}
        d.update(asdict(self))
        return d


@dataclass(frozen=True, slots=True)
class CoreFail(FaultEvent):
    """The core dies: its in-flight packet is lost, its queued
    descriptors are drained or dropped per the injector's policy, and
    until a :class:`CoreRecover` its queue refuses every packet."""

    core_id: int = 0
    type_tag = "core_fail"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        _check_int("core_id", self.core_id)
        if self.core_id < 0:
            raise ConfigError(f"core_id must be >= 0, got {self.core_id}")

    @property
    def label(self) -> str:
        return f"fail(core {self.core_id})@{self.time_ns / 1e6:.2f}ms"


@dataclass(frozen=True, slots=True)
class CoreRecover(FaultEvent):
    """A previously failed core comes back, idle and empty."""

    core_id: int = 0
    type_tag = "core_recover"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        _check_int("core_id", self.core_id)
        if self.core_id < 0:
            raise ConfigError(f"core_id must be >= 0, got {self.core_id}")

    @property
    def label(self) -> str:
        return f"recover(core {self.core_id})@{self.time_ns / 1e6:.2f}ms"


@dataclass(frozen=True, slots=True)
class CoreSlowdown(FaultEvent):
    """The core's service time is multiplied by ``factor`` (thermal
    throttling, SMT interference, a noisy neighbour).

    ``factor`` applies to packets *starting* after the event; an
    in-flight packet finishes at its original speed.  With
    ``duration_ns`` set the event expands into the slowdown plus a
    restoring ``factor=1.0`` twin; ``factor=1.0`` by itself ends an
    open-ended slowdown.
    """

    core_id: int = 0
    factor: float = 1.0
    duration_ns: int | None = None
    type_tag = "core_slowdown"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        _check_int("core_id", self.core_id)
        if self.core_id < 0:
            raise ConfigError(f"core_id must be >= 0, got {self.core_id}")
        if self.factor < 1.0:
            raise ConfigError(
                f"slowdown factor must be >= 1.0, got {self.factor}"
            )
        if self.duration_ns is not None:
            _check_int("duration_ns", self.duration_ns)
            if self.duration_ns <= 0:
                raise ConfigError(
                    f"duration_ns must be positive, got {self.duration_ns}"
                )

    @property
    def label(self) -> str:
        return (
            f"slow(core {self.core_id} x{self.factor:g})"
            f"@{self.time_ns / 1e6:.2f}ms"
        )

    def window_end(self, horizon_ns: int) -> int:
        if self.duration_ns is None:
            return horizon_ns
        return self.time_ns + self.duration_ns

    def expand(self) -> list[FaultEvent]:
        if self.duration_ns is None:
            return [self]
        return [
            CoreSlowdown(self.time_ns, self.core_id, self.factor),
            CoreSlowdown(self.time_ns + self.duration_ns, self.core_id, 1.0),
        ]


@dataclass(frozen=True, slots=True)
class TrafficSurge(FaultEvent):
    """The service's arrival rate is multiplied by ``factor`` for
    ``duration_ns``.

    Realised as time compression: the service's arrivals inside the
    window are squeezed toward the window start by ``factor`` (the
    packets arrive ``factor`` times faster, then the rest of the window
    is quiet).  The mapping is monotone, so per-flow order is
    preserved.
    """

    service_id: int = 0
    factor: float = 2.0
    duration_ns: int = units.ms(1)
    kind = "traffic"
    type_tag = "traffic_surge"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        _check_int("service_id", self.service_id)
        if self.service_id < 0:
            raise ConfigError(f"service_id must be >= 0, got {self.service_id}")
        if self.factor <= 1.0:
            raise ConfigError(f"surge factor must be > 1.0, got {self.factor}")
        _check_int("duration_ns", self.duration_ns)
        if self.duration_ns <= 0:
            raise ConfigError(
                f"duration_ns must be positive, got {self.duration_ns}"
            )

    @property
    def label(self) -> str:
        return (
            f"surge(svc {self.service_id} x{self.factor:g})"
            f"@{self.time_ns / 1e6:.2f}ms"
        )

    def window_end(self, horizon_ns: int) -> int:
        return self.time_ns + self.duration_ns


@dataclass(frozen=True, slots=True)
class ServiceFlap(FaultEvent):
    """The service's traffic flaps: for each of ``cycles`` periods the
    first ``duty`` fraction of the period carries no arrivals — they
    are deferred to the outage's end and burst in together (an upstream
    route flap with buffering, the stickiness-vs-recovery stressor of
    Liang & Borst).  Deferral is monotone, so per-flow order holds.
    """

    service_id: int = 0
    period_ns: int = units.ms(2)
    cycles: int = 3
    duty: float = 0.5
    kind = "traffic"
    type_tag = "service_flap"

    def __post_init__(self) -> None:
        FaultEvent.__post_init__(self)
        _check_int("service_id", self.service_id)
        if self.service_id < 0:
            raise ConfigError(f"service_id must be >= 0, got {self.service_id}")
        _check_int("period_ns", self.period_ns)
        if self.period_ns <= 0:
            raise ConfigError(f"period_ns must be positive, got {self.period_ns}")
        _check_int("cycles", self.cycles)
        if self.cycles <= 0:
            raise ConfigError(f"cycles must be positive, got {self.cycles}")
        if not 0.0 < self.duty < 1.0:
            raise ConfigError(f"duty must be in (0, 1), got {self.duty}")

    @property
    def label(self) -> str:
        return (
            f"flap(svc {self.service_id} x{self.cycles})"
            f"@{self.time_ns / 1e6:.2f}ms"
        )

    def window_end(self, horizon_ns: int) -> int:
        return self.time_ns + self.cycles * self.period_ns

    def outage_windows(self) -> list[tuple[int, int]]:
        """The (start, end) spans during which arrivals are deferred."""
        out = []
        down = int(self.period_ns * self.duty)
        for c in range(self.cycles):
            start = self.time_ns + c * self.period_ns
            out.append((start, start + down))
        return out


_EVENT_TYPES: dict[str, type[FaultEvent]] = {
    cls.type_tag: cls
    for cls in (CoreFail, CoreRecover, CoreSlowdown, TrafficSurge, ServiceFlap)
}


def _event_from_dict(d: object, where: str) -> FaultEvent:
    """One event from its JSON object; *where* names it in errors."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(d).__name__}")
    tag = d.get("type")
    cls = _EVENT_TYPES.get(tag) if isinstance(tag, str) else None
    if cls is None:
        raise ConfigError(
            f"{where}: unknown fault event type {tag!r}; "
            f"known: {', '.join(sorted(_EVENT_TYPES))}"
        )
    where = f"{where} ({tag})"
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(d) - {"type", *known})
    if unknown:
        raise ConfigError(
            f"{where}: unknown field(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}"
        )
    try:
        return cls(**{k: v for k, v in d.items() if k != "type"})
    except (TypeError, ConfigError) as exc:
        # a missing field, or a wrong-typed value the constructor's
        # comparisons trip over (a string factor, say)
        raise ConfigError(f"{where}: {exc}") from exc


def core_flap(
    core_id: int,
    first_fail_ns: int,
    down_ns: int,
    up_ns: int,
    cycles: int,
) -> list[FaultEvent]:
    """``cycles`` fail/recover pairs for one core (the F4 stressor)."""
    if down_ns <= 0 or up_ns <= 0:
        raise ConfigError("down_ns and up_ns must be positive")
    if cycles <= 0:
        raise ConfigError(f"cycles must be positive, got {cycles}")
    out: list[FaultEvent] = []
    t = first_fail_ns
    for _ in range(cycles):
        out.append(CoreFail(t, core_id))
        out.append(CoreRecover(t + down_ns, core_id))
        t += down_ns + up_ns
    return out


class FaultSchedule:
    """An ordered, validated set of fault events.

    Platform events are kept *expanded* (a windowed slowdown becomes
    apply + restore) and time-sorted; simultaneous events keep their
    construction order.  The schedule is immutable once built.
    """

    def __init__(self, events: list[FaultEvent] | tuple[FaultEvent, ...] = ()) -> None:
        for ev in events:
            if not isinstance(ev, FaultEvent):
                raise ConfigError(f"not a fault event: {ev!r}")
        order = sorted(range(len(events)), key=lambda i: (events[i].time_ns, i))
        self._events: tuple[FaultEvent, ...] = tuple(events[i] for i in order)
        self._check_core_lifecycles()

    # ------------------------------------------------------------------
    def _check_core_lifecycles(self) -> None:
        """Fail/recover must alternate per core; recover needs a fail."""
        down: set[int] = set()
        for ev in self._events:
            if isinstance(ev, CoreFail):
                if ev.core_id in down:
                    raise ConfigError(
                        f"core {ev.core_id} fails at {ev.time_ns} ns while "
                        "already failed"
                    )
                down.add(ev.core_id)
            elif isinstance(ev, CoreRecover):
                if ev.core_id not in down:
                    raise ConfigError(
                        f"core {ev.core_id} recovers at {ev.time_ns} ns "
                        "without a preceding failure"
                    )
                down.discard(ev.core_id)

    def validate_platform(self, num_cores: int, num_services: int) -> None:
        """Check event targets against a concrete platform."""
        max_down = 0
        down: set[int] = set()
        for ev in self._events:
            core = getattr(ev, "core_id", None)
            if core is not None and core >= num_cores:
                raise ConfigError(
                    f"{ev.label} targets core {core} of a "
                    f"{num_cores}-core platform"
                )
            sid = getattr(ev, "service_id", None)
            if sid is not None and sid >= num_services:
                raise ConfigError(
                    f"{ev.label} targets service {sid} of "
                    f"{num_services} services"
                )
            if isinstance(ev, CoreFail):
                down.add(ev.core_id)
                max_down = max(max_down, len(down))
            elif isinstance(ev, CoreRecover):
                down.discard(ev.core_id)
        if max_down >= num_cores:
            raise ConfigError("schedule fails every core at once")

    # ------------------------------------------------------------------
    @property
    def events(self) -> tuple[FaultEvent, ...]:
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def platform_events(self) -> list[FaultEvent]:
        """Expanded primitive platform events, time-sorted."""
        out: list[FaultEvent] = []
        for ev in self._events:
            if ev.kind == "platform":
                out.extend(ev.expand())
        out.sort(key=lambda e: e.time_ns)
        return out

    def platform_schedule(self) -> "FaultSchedule | None":
        """The schedule of this one's platform events (unexpanded), or
        None when it has none: what a run's injector applies when the
        traffic events are the workload's job."""
        platform = [ev for ev in self._events if ev.kind == "platform"]
        return FaultSchedule(platform) if platform else None

    def traffic_events(self) -> list[FaultEvent]:
        return [ev for ev in self._events if ev.kind == "traffic"]

    def first_event_ns(self) -> int | None:
        """Activation time of the earliest event (None when empty)."""
        return self._events[0].time_ns if self._events else None

    def windows(self, horizon_ns: int) -> list[tuple[FaultEvent, int, int]]:
        """(event, start, end) impact windows, clipped to the horizon.

        A :class:`CoreFail`'s window closes at its matching
        :class:`CoreRecover` (or the horizon); windowed events close at
        their own end.
        """
        out: list[tuple[FaultEvent, int, int]] = []
        for i, ev in enumerate(self._events):
            end = ev.window_end(horizon_ns)
            if isinstance(ev, CoreFail):
                for later in self._events[i + 1:]:
                    if (
                        isinstance(later, CoreRecover)
                        and later.core_id == ev.core_id
                    ):
                        end = later.time_ns
                        break
            if isinstance(ev, CoreRecover):
                continue  # covered by its CoreFail's window
            out.append((ev, ev.time_ns, min(end, horizon_ns)))
        return out

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self, path: str | Path | None = None) -> str:
        payload = json.dumps(
            {"events": [ev.to_dict() for ev in self._events]}, indent=2
        )
        if path is not None:
            Path(path).write_text(payload)
        return payload

    @classmethod
    def from_json(cls, source: str | Path) -> "FaultSchedule":
        """Parse a schedule from JSON text or a JSON file path; any
        malformed input raises :class:`ConfigError` saying where."""
        if isinstance(source, Path) or not source.lstrip().startswith("{"):
            where = f"fault schedule {source}"
            try:
                text = Path(source).read_text()
            except (OSError, UnicodeDecodeError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ConfigError(f"cannot read {where}: {reason}") from exc
        else:
            where, text = "fault schedule", source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{where}: invalid JSON at line {exc.lineno} column "
                f"{exc.colno}: {exc.msg}"
            ) from exc
        events = data.get("events") if isinstance(data, dict) else None
        if not isinstance(events, list):
            raise ConfigError(f'{where}: expected a JSON object with an "events" list')
        return cls([
            _event_from_dict(d, f"{where}: event {i}") for i, d in enumerate(events)
        ])

    # ------------------------------------------------------------------
    # seeded chaos
    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        duration_ns: int,
        num_cores: int,
        num_services: int,
        num_events: int = 6,
        max_concurrent_failures: int | None = None,
    ) -> "FaultSchedule":
        """A seeded random schedule for chaos runs.

        Event times land in the middle 80% of the run; failed cores
        always recover after a random fraction of the remaining time,
        and at most ``max_concurrent_failures`` (default: half the
        cores) are down at once.  Same seed, same schedule.
        """
        if duration_ns <= 0:
            raise ConfigError(f"duration_ns must be positive, got {duration_ns}")
        if num_events <= 0:
            raise ConfigError(f"num_events must be positive, got {num_events}")
        if max_concurrent_failures is None:
            cap = max(1, num_cores // 2)
        else:
            if max_concurrent_failures < 0:
                raise ConfigError(
                    f"max_concurrent_failures must be >= 0, "
                    f"got {max_concurrent_failures}"
                )
            # 0 is a real request ("no core failures"), not "unset":
            # ``max_concurrent_failures or default`` silently replaced
            # it with the default and produced CoreFail events anyway
            cap = max_concurrent_failures
        rng = make_rng(seed)
        events: list[FaultEvent] = []
        # a core is failed at most once per random schedule, which both
        # keeps the per-core fail/recover alternation trivially valid
        # and bounds concurrent failures by construction
        failed_cores: set[int] = set()
        lo, hi = int(0.1 * duration_ns), int(0.9 * duration_ns)
        for _ in range(num_events):
            t = int(rng.integers(lo, hi))
            roll = rng.random()
            if roll < 0.45 and len(failed_cores) < cap:
                avail = [c for c in range(num_cores) if c not in failed_cores]
                core = int(rng.choice(avail))
                failed_cores.add(core)
                events.append(CoreFail(t, core))
                recover_at = int(t + rng.uniform(0.2, 0.9) * (duration_ns - t))
                events.append(CoreRecover(max(recover_at, t + 1), core))
            elif roll < 0.7:
                core = int(rng.integers(0, num_cores))
                factor = float(rng.uniform(1.5, 6.0))
                dur = int(rng.uniform(0.05, 0.3) * duration_ns)
                events.append(CoreSlowdown(t, core, round(factor, 2), dur))
            elif roll < 0.9:
                sid = int(rng.integers(0, num_services))
                factor = float(rng.uniform(1.5, 4.0))
                dur = int(rng.uniform(0.05, 0.25) * duration_ns)
                events.append(TrafficSurge(t, sid, round(factor, 2), dur))
            else:
                sid = int(rng.integers(0, num_services))
                period = max(int(0.04 * duration_ns), 2)
                cycles = int(rng.integers(2, 5))
                events.append(ServiceFlap(t, sid, period, cycles))
        return cls(events)
