"""Critical-path timing of the LAPS hardware — paper Sec. III-G.

The per-packet critical path is ``hash delay -> map-table access -> mux
delay``; the AFD and map-table updates run in the background.  The paper
argues from an FPGA CRC16 figure (>200 MHz, i.e. <5 ns/lookup) and Cacti
SRAM numbers ("a fraction of a nanosecond") that LAPS sustains at least
200 Mpps — double the ~100 Mpps needed for 100 Gbps of mixed-size
packets.

This module substitutes an analytic model for Cacti: a logarithmic
SRAM access-time fit (decode depth grows with log of the word count,
wire delay with its square root) calibrated so small tables land in the
sub-nanosecond regime Cacti reports at 32 nm.  The absolute constants
matter less than the structure: the hash dominates, so the sustainable
rate tracks the hash implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["SRAMModel", "LAPSTimingModel", "estimate_max_rate_mpps"]


@dataclass(frozen=True)
class SRAMModel:
    """Analytic access-time model for a small on-chip SRAM/CAM.

    ``access_ns = base + decode_per_level * log2(words) + wire * sqrt(words*width_bits)``

    Defaults are calibrated to Cacti-6-style numbers for sub-KB tables
    at a 32 nm node: a 256 x 8 table comes out ≈0.3 ns, a 64 K x 8 table
    ≈0.8 ns.
    """

    base_ns: float = 0.15
    decode_per_level_ns: float = 0.012
    wire_ns_per_sqrt_bit: float = 0.0004

    def access_ns(self, words: int, width_bits: int) -> float:
        """Access latency of a ``words x width_bits`` array."""
        if words <= 0 or width_bits <= 0:
            raise ConfigError("words and width_bits must be positive")
        levels = math.log2(words) if words > 1 else 0.0
        wire = math.sqrt(words * width_bits)
        return (
            self.base_ns
            + self.decode_per_level_ns * levels
            + self.wire_ns_per_sqrt_bit * wire
        )


@dataclass(frozen=True)
class LAPSTimingModel:
    """End-to-end critical-path model for the scheduler front end.

    ``hash_ns`` defaults to the paper's FPGA CRC16 datapoint (200 MHz →
    5 ns per hash); an ASIC implementation is easily 2-4x faster, which
    is the paper's scalability argument.
    """

    hash_ns: float = 5.0
    mux_ns: float = 0.2
    map_table_entries: int = 256
    map_table_width_bits: int = 8  # a core id per bucket
    sram: SRAMModel = SRAMModel()

    def __post_init__(self) -> None:
        if self.hash_ns <= 0 or self.mux_ns < 0:
            raise ConfigError("delays must be positive (mux may be 0)")
        if self.map_table_entries <= 0:
            raise ConfigError("map table needs at least one entry")

    @property
    def map_table_ns(self) -> float:
        return self.sram.access_ns(self.map_table_entries, self.map_table_width_bits)

    @property
    def critical_path_ns(self) -> float:
        """End-to-end decision latency: hash -> map table -> mux (the
        AFD is off the critical path)."""
        return self.hash_ns + self.map_table_ns + self.mux_ns

    @property
    def bottleneck_ns(self) -> float:
        """The slowest stage — the paper's throughput limiter.  The
        three stages are registered (the hash engine accepts a new
        header while the previous lookup completes), so the sustainable
        rate is set by the slowest stage, not the summed latency; that
        is how a 5 ns FPGA CRC16 yields the paper's ">=200 Mpps"."""
        return max(self.hash_ns, self.map_table_ns, self.mux_ns)

    @property
    def max_rate_mpps(self) -> float:
        """Sustainable scheduling decisions per second, in millions."""
        return 1e3 / self.bottleneck_ns

    def breakdown(self) -> dict[str, float]:
        """Per-stage delays in ns plus the resulting rate."""
        return {
            "hash_ns": self.hash_ns,
            "map_table_ns": self.map_table_ns,
            "mux_ns": self.mux_ns,
            "critical_path_ns": self.critical_path_ns,
            "bottleneck_ns": self.bottleneck_ns,
            "max_rate_mpps": self.max_rate_mpps,
        }


def estimate_max_rate_mpps(
    num_cores: int = 256,
    hash_ns: float = 5.0,
    mux_ns: float = 0.2,
) -> float:
    """Convenience wrapper: max scheduling rate for a map table sized to
    *num_cores* buckets (the paper's >=200 Mpps claim uses the FPGA
    CRC16 figure)."""
    model = LAPSTimingModel(
        hash_ns=hash_ns, mux_ns=mux_ns, map_table_entries=max(num_cores, 2)
    )
    return model.max_rate_mpps
