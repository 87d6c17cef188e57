"""Pure static hashing — the scheme of [11]/[22]/[36]/[37] without any
migration.

One map table over *all* cores: ``core = CRC16(5-tuple) % num_cores``.
Perfect flow locality and packet order, zero adaptivity: an elephant
overloads whatever core it hashes to and nothing rebalances (the paper's
Fig. 9 "no migration" extreme).
"""

from __future__ import annotations

from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["StaticHashScheduler"]


@register_scheduler("hash-static")
class StaticHashScheduler(Scheduler):
    """``hash % n`` with no load balancing whatsoever."""

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        return flow_hash % self.loads.num_cores

    def assign_batch(self, flow_hash, service_id, flow_id, arrival_ns):
        # the map is the modulus itself: pure, side-effect free, and
        # never mutated, so map_epoch never bumps after bind and one
        # plan covers a whole window
        return flow_hash % self.loads.num_cores
