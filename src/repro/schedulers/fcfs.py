"""FCFS baseline — the paper's first comparator (Sec. V-A).

First-come-first-served dispatch: each arriving packet goes to the
least-backlogged core regardless of its flow or service (with a bounded
per-core queue this join-shortest-queue dispatch is the standard
realisation of a single logical FCFS queue drained by all cores).

FCFS maximises instantaneous balance but is oblivious to everything the
paper cares about: packets of one flow spray across cores (reordering +
per-flow data bouncing) and services interleave on every core (cold
I-cache on almost every packet).
"""

from __future__ import annotations

from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["FCFSScheduler"]


@register_scheduler("fcfs")
class FCFSScheduler(Scheduler):
    """Join-shortest-queue, flow- and service-oblivious."""

    def __init__(self) -> None:
        super().__init__()
        self._rr = 0  # rotate tie-breaks so core 0 is not favoured

    def bind(self, loads) -> None:
        super().bind(loads)
        self._rr = 0

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        occ = self.loads.occ
        start = self._rr
        self._rr = start + 1 if start + 1 < len(occ) else 0
        # the first least-loaded core at or after ``start``, wrapping
        m = min(occ)
        try:
            return occ.index(m, start)
        except ValueError:
            return occ.index(m)
