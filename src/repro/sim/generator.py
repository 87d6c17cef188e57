"""Traffic-rate modelling and arrival generation — paper Sec. IV-C1.

Per-service traffic rate follows the Holt-Winters-style model of eq. (1):

    x_i(t) = a + b*t + C*S(t % m) + n(sigma)

with ``a`` the baseline, ``b`` the linear trend, ``C`` the magnitude of
the seasonal shape ``S`` (period ``m``), and ``n`` zero-mean Gaussian
noise.  The paper leaves ``S`` unspecified; we use the canonical
unit-amplitude sinusoid.  Rates are clamped at a small positive floor —
eq. (1) can go negative for large sigma, which is unphysical.

Arrivals are an inhomogeneous Poisson process realised piecewise: the
duration is cut into short segments, the rate is sampled (with noise)
once per segment, a Poisson count is drawn, and arrival instants fall
uniformly within the segment.  This is exact for piecewise-constant
rates and fully vectorised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import units
from repro.errors import ConfigError
from repro.util.rng import make_rng

__all__ = [
    "HoltWintersParams", "HoltWinters", "ArrivalStream", "arrival_times",
    "build_rate_model",
]


@dataclass(frozen=True)
class HoltWintersParams:
    """One service's row of Table IV.

    Units follow the paper: rates (``a``, ``b``-slope, ``C``, ``sigma``)
    in packets/second; the seasonal period ``m`` in seconds.  ``b`` is
    the rate *increase per second*.
    """

    a: float
    b: float = 0.0
    c: float = 0.0
    m: float = 1.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ConfigError(f"baseline rate must be >= 0, got {self.a}")
        if self.m <= 0:
            raise ConfigError(f"seasonal period must be positive, got {self.m}")
        if self.sigma < 0:
            raise ConfigError(f"noise sigma must be >= 0, got {self.sigma}")

    def scaled(self, factor: float) -> "HoltWintersParams":
        """All rate-dimension terms scaled by *factor* (period kept)."""
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        return HoltWintersParams(
            self.a * factor, self.b * factor, self.c * factor, self.m, self.sigma * factor
        )


class HoltWinters:
    """Evaluator for the eq. (1) rate model."""

    #: Clamp floor as a fraction of the baseline ``a`` (rates never go
    #: fully to zero so inter-arrival generation stays well-defined).
    FLOOR_FRACTION = 0.01

    def __init__(self, params: HoltWintersParams) -> None:
        self.params = params

    def mean_rate(self, t_s: float) -> float:
        """Deterministic part of x(t) at *t_s* seconds (no noise)."""
        p = self.params
        seasonal = p.c * math.sin(2.0 * math.pi * (t_s % p.m) / p.m)
        return max(p.a * self.FLOOR_FRACTION, p.a + p.b * t_s + seasonal)

    def mean_rate_batch(self, t_s: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`mean_rate`."""
        p = self.params
        t_s = np.asarray(t_s, dtype=np.float64)
        seasonal = p.c * np.sin(2.0 * np.pi * np.mod(t_s, p.m) / p.m)
        return np.maximum(p.a * self.FLOOR_FRACTION, p.a + p.b * t_s + seasonal)

    def sample_rates(
        self,
        t_s: np.ndarray,
        rng: np.random.Generator | int | None = None,
    ) -> np.ndarray:
        """x(t) with the noise term drawn per evaluation point."""
        rng = make_rng(rng)
        base = self.mean_rate_batch(t_s)
        if self.params.sigma > 0:
            base = base + rng.normal(0.0, self.params.sigma, size=base.shape)
        return np.maximum(self.params.a * self.FLOOR_FRACTION, base)

    def average_rate(self, duration_s: float, samples: int = 512) -> float:
        """Time-average of the deterministic rate over ``[0, duration_s]``
        (used to calibrate offered load to a target utilisation)."""
        if duration_s <= 0:
            raise ConfigError(f"duration must be positive, got {duration_s}")
        t = np.linspace(0.0, duration_s, samples, endpoint=False)
        return float(self.mean_rate_batch(t).mean())

    def segment_hint_s(self) -> float:
        """Characteristic time scale of the rate process, in seconds.

        :class:`ArrivalStream` discretises at 1/50 of this (bounded to
        [100 us, 10 ms]) so the rate shape is well resolved.  For the
        eq. (1) model the scale is the seasonal period ``m``.
        """
        return self.params.m


def build_rate_model(params):
    """Build the rate-model evaluator for a per-service params object.

    :class:`HoltWintersParams` maps to :class:`HoltWinters` (the
    historical behaviour); any other params type must expose a
    ``build()`` method returning an evaluator with the same protocol
    (``sample_rates``, ``mean_rate_batch``, ``average_rate``,
    ``segment_hint_s``) — see :mod:`repro.workloads.arrivals` for the
    MMPP and diurnal models.  Both :func:`repro.sim.workload.build_workload`
    and :class:`repro.sim.source.StreamingSource` route through this
    dispatcher, which is what keeps streamed and materialized
    generation bit-identical for every model family.
    """
    if isinstance(params, HoltWintersParams):
        return HoltWinters(params)
    build = getattr(params, "build", None)
    if callable(build):
        return build()
    raise ConfigError(
        f"unsupported rate params type {type(params).__name__}: expected "
        "HoltWintersParams or an object with a build() method"
    )


class ArrivalStream:
    """Incremental realisation of one service's arrival process.

    Draws the *same* random variates in the *same* order as the
    whole-horizon :func:`arrival_times` — all per-segment rates, then
    all Poisson counts, up front (both are O(n_segments), tiny), with
    the per-arrival uniforms drawn lazily one segment at a time — so
    concatenating :meth:`next_segment` over every segment is
    bit-identical to the :func:`arrival_times` array while holding only
    one segment's arrivals in memory.

    Segment arrivals lie in ``[start, next start)`` strictly, so a
    per-segment sort concatenates into the globally sorted sequence and
    :meth:`pending_floor_ns` is a hard lower bound on every arrival not
    yet realised (the safe merge horizon for
    :class:`repro.sim.source.StreamingSource`).
    """

    __slots__ = (
        "_rng", "_segment_ns", "_duration_ns", "_counts", "_lengths_ns",
        "n_segments", "total", "_next_segment",
    )

    def __init__(
        self,
        model: HoltWinters,
        duration_ns: int,
        rng: np.random.Generator | int | None = None,
        segment_ns: int | None = None,
    ) -> None:
        if duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {duration_ns}")
        rng = make_rng(rng)
        if segment_ns is None:
            hint_s = float(model.segment_hint_s())
            segment_ns = min(
                units.ms(10), max(units.us(100), int(hint_s * units.SEC / 50))
            )
        n_segments = (duration_ns + segment_ns - 1) // segment_ns
        starts_ns = np.arange(n_segments, dtype=np.int64) * segment_ns
        lengths_ns = np.minimum(segment_ns, duration_ns - starts_ns)
        rates = model.sample_rates(starts_ns / units.SEC, rng)
        expected = rates * (lengths_ns / units.SEC)
        self._rng = rng
        self._segment_ns = int(segment_ns)
        self._duration_ns = int(duration_ns)
        self._counts = rng.poisson(expected)
        self._lengths_ns = lengths_ns
        self.n_segments = int(n_segments)
        self.total = int(self._counts.sum())
        self._next_segment = 0

    @property
    def exhausted(self) -> bool:
        return self._next_segment >= self.n_segments

    def pending_floor_ns(self) -> int:
        """Lower bound on every arrival not yet realised (the start of
        the next unrealised segment)."""
        return self._next_segment * self._segment_ns

    def next_segment(self) -> np.ndarray:
        """Sorted int64 arrivals of the next segment (possibly empty)."""
        j = self._next_segment
        if j >= self.n_segments:
            raise ConfigError("arrival stream is exhausted")
        self._next_segment = j + 1
        count = int(self._counts[j])
        if count == 0:
            return np.empty(0, dtype=np.int64)
        start = j * self._segment_ns
        offsets = self._rng.random(count) * int(self._lengths_ns[j])
        times = start + offsets.astype(np.int64)
        times.sort()  # plain values: stability is unobservable
        return times


def arrival_times(
    model: HoltWinters,
    duration_ns: int,
    rng: np.random.Generator | int | None = None,
    segment_ns: int | None = None,
) -> np.ndarray:
    """Sorted arrival instants (int64 ns) of an inhomogeneous Poisson
    process driven by *model* over ``[0, duration_ns)``.

    ``segment_ns`` controls the piecewise-constant discretisation;
    default is 1/50 of the seasonal period (capped at 10 ms) so the
    seasonal shape is well resolved.  Realised through
    :class:`ArrivalStream`, whose chunked draws are bit-identical to
    the historical whole-horizon generation.
    """
    stream = ArrivalStream(model, duration_ns, rng, segment_ns)
    if stream.total == 0:
        return np.empty(0, dtype=np.int64)
    segments = [stream.next_segment() for _ in range(stream.n_segments)]
    return np.concatenate(segments)
