"""Bursty and diurnal arrival-rate models beyond eq. (1).

Two model families plug into the same inhomogeneous-Poisson machinery
as the paper's Holt-Winters generator (:mod:`repro.sim.generator`):

**MMPP** — a Markov-modulated Poisson process: a continuous-time Markov
chain over a handful of states, each with its own Poisson rate.  State
dwell times are exponential; on leaving a state the embedded chain
routes to the next one.  Two states (quiet/burst) give the classic
on-off burst train; more states give multi-scale burstiness.  This is
the standard model for bursty internet arrivals (Sprinklers' motivating
regime) that a single sinusoid cannot express.

**Diurnal** — a day-shaped sinusoid plus linear trend, with injectable
**flash-crowd** events: each event multiplies the rate by
``1 + magnitude * envelope(t)``, where the envelope ramps up linearly
over ``ramp_s`` and decays exponentially with time constant
``decay_s``.  Flash crowds are the adversarial input for migration
policies: offered load multiplies in less than a seasonal period.

Both evaluators implement the rate-model protocol used by
:class:`~repro.sim.generator.ArrivalStream` (``sample_rates`` /
``mean_rate_batch`` / ``average_rate`` / ``segment_hint_s``), and both
params dataclasses expose ``build()`` so
:func:`~repro.sim.generator.build_rate_model` dispatches on them — the
single construction path shared by materialized and streamed workload
generation, which is what keeps the two modes bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.util.rng import make_rng

__all__ = [
    "MMPPParams",
    "MMPP",
    "FlashCrowd",
    "DiurnalParams",
    "DiurnalRate",
]


# ----------------------------------------------------------------------
# MMPP
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MMPPParams:
    """A Markov-modulated Poisson process specification.

    Attributes
    ----------
    rates_pps:
        Per-state Poisson arrival rates (packets/second).
    mean_dwell_s:
        Mean exponential sojourn time per state, in seconds (parallel
        to ``rates_pps``).
    transition:
        Optional embedded-chain routing matrix: row *i* gives the
        probability of jumping to each state on leaving state *i*
        (diagonal must be 0, rows sum to 1).  Default: uniform over the
        other states.
    start_state:
        State occupied at t=0.
    """

    rates_pps: tuple[float, ...]
    mean_dwell_s: tuple[float, ...]
    transition: tuple[tuple[float, ...], ...] | None = None
    start_state: int = 0

    def __post_init__(self) -> None:
        k = len(self.rates_pps)
        if k == 0:
            raise ConfigError("MMPP needs at least one state")
        if len(self.mean_dwell_s) != k:
            raise ConfigError(
                f"{k} rates vs {len(self.mean_dwell_s)} dwell times"
            )
        if any(r < 0 for r in self.rates_pps):
            raise ConfigError(f"state rates must be >= 0: {self.rates_pps}")
        if all(r == 0 for r in self.rates_pps):
            raise ConfigError("at least one state rate must be positive")
        if any(d <= 0 for d in self.mean_dwell_s):
            raise ConfigError(f"dwell times must be positive: {self.mean_dwell_s}")
        if not 0 <= self.start_state < k:
            raise ConfigError(f"start_state {self.start_state} out of range")
        if self.transition is not None:
            if len(self.transition) != k or any(len(row) != k for row in self.transition):
                raise ConfigError(f"transition matrix must be {k}x{k}")
            for i, row in enumerate(self.transition):
                if row[i] != 0.0:
                    raise ConfigError(
                        f"transition diagonal must be 0 (state {i}): self-jumps "
                        "are absorbed into the dwell time"
                    )
                if any(p < 0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                    raise ConfigError(
                        f"transition row {i} must be a distribution, got {row}"
                    )

    @property
    def num_states(self) -> int:
        return len(self.rates_pps)

    def scaled(self, factor: float) -> "MMPPParams":
        """All state rates scaled by *factor* (dwell structure kept)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return replace(
            self, rates_pps=tuple(r * factor for r in self.rates_pps)
        )

    def build(self) -> "MMPP":
        return MMPP(self)


class MMPP:
    """Evaluator for :class:`MMPPParams`.

    ``sample_rates`` realises one CTMC trajectory covering the queried
    horizon — dwell times drawn from *rng* in a fixed order — then maps
    each query instant to its state's rate.  Because the trajectory is
    a pure function of the rng stream, the chunked
    :class:`~repro.sim.generator.ArrivalStream` (which calls
    ``sample_rates`` exactly once up front) replays it from the seed
    without any MMPP-specific state.
    """

    def __init__(self, params: MMPPParams) -> None:
        self.params = params
        self._routing = self._routing_matrix()

    def _routing_matrix(self) -> np.ndarray:
        p = self.params
        k = p.num_states
        if p.transition is not None:
            return np.asarray(p.transition, dtype=np.float64)
        routing = np.full((k, k), 1.0 / max(1, k - 1))
        np.fill_diagonal(routing, 0.0)
        if k == 1:
            routing[0, 0] = 1.0
        return routing

    def stationary_distribution(self) -> np.ndarray:
        """Long-run fraction of *time* spent in each state.

        Power-iterates the embedded chain to its stationary vector, then
        time-weights by mean dwell (renewal-reward).
        """
        k = self.params.num_states
        if k == 1:
            return np.ones(1)
        pi = np.full(k, 1.0 / k)
        for _ in range(512):
            nxt = pi @ self._routing
            if np.abs(nxt - pi).max() < 1e-12:
                pi = nxt
                break
            pi = nxt
        weights = pi * np.asarray(self.params.mean_dwell_s)
        return weights / weights.sum()

    def stationary_rate(self) -> float:
        """Long-run mean arrival rate (pps)."""
        return float(
            self.stationary_distribution() @ np.asarray(self.params.rates_pps)
        )

    # -- rate-model protocol -------------------------------------------
    def segment_hint_s(self) -> float:
        # ArrivalStream discretises at hint/50; aim for ~4 segments per
        # shortest mean dwell so individual bursts are resolved.
        return min(self.params.mean_dwell_s) * 12.5

    def mean_rate(self, t_s: float) -> float:
        """Stationary mean (the deterministic 'expected' rate — the
        trajectory itself is random)."""
        return self.stationary_rate()

    def mean_rate_batch(self, t_s: np.ndarray) -> np.ndarray:
        t_s = np.asarray(t_s, dtype=np.float64)
        return np.full(t_s.shape, self.stationary_rate())

    def average_rate(self, duration_s: float, samples: int = 512) -> float:
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {duration_s}")
        return self.stationary_rate()

    def sample_rates(
        self,
        t_s: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """Per-instant rates along one realised CTMC trajectory."""
        rng = make_rng(rng)
        t_s = np.asarray(t_s, dtype=np.float64)
        if t_s.size == 0:
            return np.empty(0, dtype=np.float64)
        horizon = float(t_s[-1]) + self.segment_hint_s()
        dwell = np.asarray(self.params.mean_dwell_s)
        rates = np.asarray(self.params.rates_pps)
        k = self.params.num_states
        state = self.params.start_state
        states = [state]
        boundaries: list[float] = []
        t = 0.0
        while t <= horizon:
            t += float(rng.exponential(dwell[state]))
            boundaries.append(t)
            if k > 1:
                state = int(rng.choice(k, p=self._routing[state]))
            states.append(state)
        idx = np.searchsorted(np.asarray(boundaries), t_s, side="right")
        return rates[np.asarray(states)[idx]]


# ----------------------------------------------------------------------
# Diurnal profile with flash crowds
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlashCrowd:
    """One flash-crowd event: a multiplicative rate surge.

    The rate is multiplied by ``1 + magnitude * envelope(t)``; the
    envelope ramps 0 -> 1 linearly over ``ramp_s`` starting at
    ``t_start_s``, then decays as ``exp(-(t - peak) / decay_s)``.
    """

    t_start_s: float
    magnitude: float
    ramp_s: float
    decay_s: float

    def __post_init__(self) -> None:
        if self.t_start_s < 0:
            raise ConfigError(f"flash crowd start must be >= 0, got {self.t_start_s}")
        if self.magnitude <= 0:
            raise ConfigError(f"flash crowd magnitude must be positive, got {self.magnitude}")
        if self.ramp_s <= 0 or self.decay_s <= 0:
            raise ConfigError(
                f"ramp/decay must be positive, got {self.ramp_s}/{self.decay_s}"
            )

    def envelope(self, t_s: np.ndarray) -> np.ndarray:
        """The 0..1 surge shape at each instant."""
        t_s = np.asarray(t_s, dtype=np.float64)
        rel = t_s - self.t_start_s
        ramp = np.clip(rel / self.ramp_s, 0.0, 1.0)
        decay = np.exp(-np.maximum(0.0, rel - self.ramp_s) / self.decay_s)
        return np.where(rel <= 0, 0.0, ramp * decay)


@dataclass(frozen=True)
class DiurnalParams:
    """A diurnal rate profile with optional flash crowds.

    Base shape: ``a * (1 + amplitude * sin(2*pi*(t/period + phase)))
    + trend * t``, multiplied by every flash crowd's surge factor, plus
    Gaussian noise ``sigma``.  ``period_s`` is the (time-compressed)
    day; simulated runs typically compress 24 h into tens of
    milliseconds, matching the paper's seconds -> milliseconds mapping.
    """

    a: float
    amplitude: float = 0.5
    period_s: float = 86_400.0
    trend_pps_per_s: float = 0.0
    sigma: float = 0.0
    phase: float = 0.0
    flash_crowds: tuple[FlashCrowd, ...] = ()

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ConfigError(f"baseline rate must be positive, got {self.a}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ConfigError(
                f"amplitude must be in [0, 1) (rate stays positive), got {self.amplitude}"
            )
        if self.period_s <= 0:
            raise ConfigError(f"period must be positive, got {self.period_s}")
        if self.sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.sigma}")

    def scaled(self, factor: float) -> "DiurnalParams":
        """Rate-dimension terms scaled (shape, period and crowds kept:
        amplitude and flash magnitudes are multiplicative)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return replace(
            self,
            a=self.a * factor,
            trend_pps_per_s=self.trend_pps_per_s * factor,
            sigma=self.sigma * factor,
        )

    def build(self) -> "DiurnalRate":
        return DiurnalRate(self)


class DiurnalRate:
    """Evaluator for :class:`DiurnalParams` (rate-model protocol)."""

    #: Same positivity floor convention as the eq. (1) evaluator.
    FLOOR_FRACTION = 0.01

    def __init__(self, params: DiurnalParams) -> None:
        self.params = params

    def segment_hint_s(self) -> float:
        # resolve the fastest feature present: the diurnal period, or a
        # flash crowd's ramp/decay if one is sharper
        hint = self.params.period_s
        for fc in self.params.flash_crowds:
            hint = min(hint, 10.0 * max(fc.ramp_s, fc.decay_s))
        return hint

    def mean_rate_batch(self, t_s: np.ndarray) -> np.ndarray:
        p = self.params
        t_s = np.asarray(t_s, dtype=np.float64)
        base = p.a * (
            1.0 + p.amplitude * np.sin(2.0 * math.pi * (t_s / p.period_s + p.phase))
        ) + p.trend_pps_per_s * t_s
        for fc in p.flash_crowds:
            base = base * (1.0 + fc.magnitude * fc.envelope(t_s))
        return np.maximum(p.a * self.FLOOR_FRACTION, base)

    def mean_rate(self, t_s: float) -> float:
        return float(self.mean_rate_batch(np.asarray([t_s]))[0])

    def sample_rates(
        self,
        t_s: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        rng = make_rng(rng)
        base = self.mean_rate_batch(t_s)
        if self.params.sigma > 0:
            base = base + rng.normal(0.0, self.params.sigma, size=base.shape)
        return np.maximum(self.params.a * self.FLOOR_FRACTION, base)

    def average_rate(self, duration_s: float, samples: int = 512) -> float:
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {duration_s}")
        t = np.linspace(0.0, duration_s, samples, endpoint=False)
        return float(self.mean_rate_batch(t).mean())
