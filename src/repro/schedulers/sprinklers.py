"""Sprinklers — variable-size striping (Ding & Liu).

Sprinklers' insight is that spraying and pinning are the two ends of a
dial: a flow striped over *W* paths gets *W*-fold balance but risks
reordering at every stripe boundary, so the stripe width should scale
with how much traffic the flow actually carries.  Mice keep ``W = 1``
(perfect order, and they are too small to unbalance anything); a flow
that proves heavy widens its stripe step by step, spreading exactly the
traffic that would otherwise overload one core.

This adaptation maps the scheme onto the simulator's core array: each
flow hashes to a base core and stripes over the ``W`` consecutive cores
from there, switching stripe members every ``stripe_chunk`` packets
(chunked round-robin — striping at chunk granularity is what bounds
reordering to the chunk boundaries).  The width doubles each time the
flow's packet count crosses ``width_threshold * W^2``, capped at
``max_width`` and the core count, so widths follow measured rate the
way Sprinklers sizes stripes from flow rates.

Placement is static given the per-flow packet count — no queue is ever
consulted — so the scheme is oblivious to faults and to transient skew,
and its tournament rows sit between ``rss-static`` (no balance, no
reorder) and ``fcfs`` (full balance, full reorder) by construction.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["SprinklersScheduler"]


@register_scheduler("sprinklers")
class SprinklersScheduler(Scheduler):
    """Hash-based striping whose per-flow width grows with flow size."""

    def __init__(
        self,
        stripe_chunk: int = 64,
        width_threshold: int = 256,
        max_width: int = 4,
    ) -> None:
        super().__init__()
        if stripe_chunk <= 0:
            raise ConfigError(f"stripe_chunk must be positive, got {stripe_chunk}")
        if width_threshold <= 0:
            raise ConfigError(
                f"width_threshold must be positive, got {width_threshold}"
            )
        if max_width <= 0 or max_width & (max_width - 1):
            raise ConfigError(
                f"max_width must be a positive power of two, got {max_width}"
            )
        self.stripe_chunk = stripe_chunk
        self.width_threshold = width_threshold
        self.max_width = max_width
        self._width_cap = max_width
        self._count: dict[int, int] = {}
        self.stripes_widened = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        cap = self.max_width
        while cap > loads.num_cores:
            cap >>= 1
        self._width_cap = max(1, cap)
        self._count = {}
        self.stripes_widened = 0

    # ------------------------------------------------------------------
    def _width(self, count: int) -> int:
        """Stripe width after *count* packets: doubles at
        ``width_threshold * W^2`` so each widening needs quadratically
        more evidence (heavy flows earn wide stripes, mice never do)."""
        w = 1
        cap = self._width_cap
        thr = self.width_threshold
        while w < cap and count >= thr * w * w:
            w <<= 1
        return w

    def _core_for(self, flow_hash: int, count: int) -> int:
        n = self.loads.num_cores
        w = self._width(count)
        member = (count // self.stripe_chunk) % w
        return (flow_hash % n + member) % n

    def _advance(self, flow_id: int) -> None:
        """The unconditional per-packet bookkeeping: count the packet
        and account stripe widenings."""
        c = self._count.get(flow_id, 0)
        self._count[flow_id] = c + 1
        if self._width(c + 1) > self._width(c):
            self.stripes_widened += 1

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        core = self._core_for(flow_hash, self._count.get(flow_id, 0))
        self._advance(flow_id)
        return core

    def stats(self) -> dict[str, float]:
        return {"stripes_widened": self.stripes_widened}
