"""Flowlet switching — migrate only at idle gaps, so migration (almost)
never reorders.

A *flowlet* is a burst of a flow's packets separated from the next
burst by an idle gap longer than the in-flight drain time.  If a flow
only ever changes core at such a gap, every packet the old core still
held has departed before the first packet lands on the new core —
load balancing without the reordering bill (the mechanism behind CONGA,
LetFlow and the Harvard CS145 flowlet controller this shape follows:
per-flow ``(last_seen, core)`` state, re-picking the least-loaded
target only when ``now - last_seen >= gap_ns``).

Within a burst the flow is perfectly sticky, so short flows behave like
static hashing; across gaps the flow re-joins wherever the load is
lowest, so sustained skew *does* get balanced — just at burst
granularity rather than per packet.  The knob is ``gap_ns``: too small
and switching outruns the queues (reordering returns), too large and
elephants never find a gap to migrate through (imbalance returns).
A failed core's bindings are evicted immediately (the controller
analogue of a link-down notification), so its flows re-pick at their
very next packet instead of black-holing until a gap.
"""

from __future__ import annotations

from repro import units
from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["FlowletScheduler"]


@register_scheduler("flowlet")
class FlowletScheduler(Scheduler):
    """Join-shortest-queue at flowlet boundaries, sticky in between."""

    def __init__(self, gap_ns: int = units.us(50)) -> None:
        super().__init__()
        if gap_ns <= 0:
            raise ConfigError(f"gap_ns must be positive, got {gap_ns}")
        self.gap_ns = gap_ns
        self._core: dict[int, int] = {}
        self._last_ns: dict[int, int] = {}
        self.flowlets = 0
        self.switches = 0
        self.fault_evictions = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        self._core = {}
        self._last_ns = {}
        self.flowlets = 0
        self.switches = 0
        self.fault_evictions = 0

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        last = self._last_ns.get(flow_id)
        self._last_ns[flow_id] = t_ns
        core = self._core.get(flow_id)
        if core is not None and t_ns - last < self.gap_ns:
            return core  # mid-burst: sticky, no queue consulted
        # flowlet boundary (or brand-new flow): re-pick least-loaded
        dest = self._min_queue_core()
        self.flowlets += 1
        if core is not None and dest != core:
            self.switches += 1
        self._core[flow_id] = dest
        return dest

    def on_core_down(self, core_id: int, t_ns: int) -> None:
        """Evict every binding onto the dead core: each flow re-picks
        at its next packet regardless of gap (treated as a fresh flow,
        so the switch is not counted as a flowlet switch)."""
        victims = [f for f, c in self._core.items() if c == core_id]
        for f in victims:
            del self._core[f]
        self.fault_evictions += len(victims)

    def stats(self) -> dict[str, float]:
        return {
            "flowlets": self.flowlets,
            "switches": self.switches,
            "fault_evictions": self.fault_evictions,
        }
