"""Flow Director — per-flow NIC steering with follow-the-load rebinding
(Intel's Flow Director / ATR, the reordering pathology of Wu et al.).

An exact-match table pins every flow to a core.  A new flow is bound to
the least-loaded core at its first packet (good balance); whenever a
bound flow's packet finds its core overloaded, the entry is *rebound*
to the current least-loaded core immediately — Flow Director's
Application Targeted Routing resamples routes continuously, with no
cooldown and no regard for the packets still queued on the old core.

That is exactly the pathology Wu, Wu & Crawford measured ("Why Can Some
Advanced Ethernet NICs Cause Packet Reordering?"): every rebinding
under a core-load shift lets fresh packets on the new (short) queue
overtake the flow's in-flight packets on the old (long) queue, so the
scheme converts load swings into reordering across *many* flows — the
opposite end of the tradeoff curve from flowlet switching, which waits
for an idle gap before moving anybody.  The bounded table adds the
second documented failure mode: entry eviction silently unbinds old
flows, which then rebind wherever the load happens to be.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["FlowDirectorScheduler"]


@register_scheduler("flow-director")
class FlowDirectorScheduler(Scheduler):
    """Exact-match flow table + immediate rebind on target overload."""

    def __init__(
        self,
        table_entries: int = 8192,
        rebind_threshold: int = 24,
    ) -> None:
        super().__init__()
        if table_entries <= 0:
            raise ConfigError(f"table_entries must be positive, got {table_entries}")
        if rebind_threshold <= 0:
            raise ConfigError(
                f"rebind_threshold must be positive, got {rebind_threshold}"
            )
        self.table_entries = table_entries
        self.rebind_threshold = rebind_threshold
        #: flow id -> core, insertion-ordered (FIFO eviction)
        self._table: dict[int, int] = {}
        self.flows_bound = 0
        self.rebinds = 0
        self.evictions = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        if self.rebind_threshold > loads.queue_capacity:
            raise ConfigError(
                f"rebind_threshold {self.rebind_threshold} exceeds queue "
                f"capacity {loads.queue_capacity}"
            )
        self._table = {}
        self.flows_bound = 0
        self.rebinds = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._table)

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        table = self._table
        core = table.get(flow_id)
        if core is None:
            # first packet: bind to the least-loaded core right now
            core = self._min_queue_core()
            if len(table) >= self.table_entries:
                # FIFO eviction: the oldest binding is forgotten
                del table[next(iter(table))]
                self.evictions += 1
            table[flow_id] = core
            self.flows_bound += 1
            return core
        occ = self.loads.occ
        if occ[core] >= self.rebind_threshold:
            # ATR resample: follow the load, ignore in-flight packets
            dest = self._min_queue_core()
            if dest != core and occ[dest] < self.rebind_threshold:
                table[flow_id] = dest
                self.rebinds += 1
                return dest
        return core

    def stats(self) -> dict[str, float]:
        return {
            "flows_bound": self.flows_bound,
            "rebinds": self.rebinds,
            "evictions": self.evictions,
        }
