"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units
from repro.errors import ConfigError
from repro.net.service import ServiceSet, default_services

__all__ = ["SimConfig"]


@dataclass(frozen=True)
class SimConfig:
    """Parameters of the simulated network processor.

    Defaults follow the paper's evaluation platform: 16 data-plane
    cores, 32-descriptor input queues, the four Fig. 5 services with
    GEMS-derived latency constants, FM penalty 0.8 us, cold-cache
    penalty 10 us.

    ``drain_ns`` bounds how long the simulator keeps serving queued
    packets after the last arrival (so in-flight packets depart and are
    scored); 0 cuts the run at the last arrival.
    ``collect_latencies`` gates per-packet latency recording (8 bytes
    per departure, kept as int64 chunks until the report summarizes
    them — disable for the biggest runs).
    ``record_departures`` additionally stores the egress sequence
    ``(flow_id, seq, depart_ns)`` on the report, enabling post-hoc
    analyses such as the order-restoration buffer study
    (:mod:`repro.sim.restoration`).
    """

    num_cores: int = 16
    queue_capacity: int = 32
    services: ServiceSet = field(default_factory=default_services)
    fm_penalty_ns: int = units.us(0.8)
    cc_penalty_ns: int = units.us(10.0)
    drain_ns: int = units.ms(50)
    collect_latencies: bool = True
    record_departures: bool = False

    def __post_init__(self) -> None:
        if self.num_cores <= 0:
            raise ConfigError(f"num_cores must be positive, got {self.num_cores}")
        if self.queue_capacity <= 0:
            raise ConfigError(
                f"queue_capacity must be positive, got {self.queue_capacity}"
            )
        if self.drain_ns < 0:
            raise ConfigError(f"drain_ns must be >= 0, got {self.drain_ns}")
        if self.fm_penalty_ns < 0 or self.cc_penalty_ns < 0:
            raise ConfigError("penalties must be >= 0")
