"""Core power/energy accounting — the Sec. II power-saving context.

The paper motivates dynamic core allocation partly via traffic-aware
power management ([20], [29]): cores that a service marks surplus can
be clock- or power-gated.  This module turns a simulation report's
per-core utilisation into an energy estimate under three policies, so
the ablation bench can quantify how much head-room LAPS's surplus
tracking creates.

Model: each core burns ``active_w`` while processing, ``idle_w`` while
powered but idle, and ``sleep_w`` when gated.  ``gating_fraction`` of
the idle time is gateable (entering/leaving sleep has latency, so only
long idle stretches — exactly the surplus condition — qualify).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.sim.metrics import SimReport

__all__ = ["PowerModel", "PowerReport"]


@dataclass(frozen=True)
class PowerReport:
    """Energy estimate for one simulation run."""

    active_j: float
    idle_j: float
    sleep_j: float
    total_j: float
    baseline_j: float  # no gating at all

    @property
    def savings_fraction(self) -> float:
        """Energy saved relative to the ungated baseline."""
        if self.baseline_j == 0:
            return 0.0
        return 1.0 - self.total_j / self.baseline_j


@dataclass(frozen=True)
class PowerModel:
    """Per-core power states (defaults: a small in-order data-plane
    core at 1 GHz — watts chosen to match embedded-class parts)."""

    active_w: float = 0.75
    idle_w: float = 0.30
    sleep_w: float = 0.02

    def __post_init__(self) -> None:
        if not self.sleep_w <= self.idle_w <= self.active_w:
            raise ConfigError(
                "expected sleep_w <= idle_w <= active_w, got "
                f"{self.sleep_w}/{self.idle_w}/{self.active_w}"
            )

    def evaluate(
        self,
        report: SimReport,
        gating_fraction: float = 0.0,
    ) -> PowerReport:
        """Energy for one run.

        ``gating_fraction`` is the share of idle time spent gated
        (0 = no power management; LAPS's surplus tracking typically
        makes most of a quiet core's idle time gateable).
        """
        if not 0.0 <= gating_fraction <= 1.0:
            raise ConfigError(
                f"gating_fraction must be in [0, 1], got {gating_fraction}"
            )
        duration_s = report.duration_ns / 1e9
        active_j = idle_j = sleep_j = baseline_j = 0.0
        for util in report.core_utilization:
            util = min(util, 1.0)
            busy_s = util * duration_s
            idle_s = (1.0 - util) * duration_s
            gated_s = idle_s * gating_fraction
            active_j += busy_s * self.active_w
            idle_j += (idle_s - gated_s) * self.idle_w
            sleep_j += gated_s * self.sleep_w
            baseline_j += busy_s * self.active_w + idle_s * self.idle_w
        return PowerReport(
            active_j=active_j,
            idle_j=idle_j,
            sleep_j=sleep_j,
            total_j=active_j + idle_j + sleep_j,
            baseline_j=baseline_j,
        )
