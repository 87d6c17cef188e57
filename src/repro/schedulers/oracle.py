"""Exact per-flow-statistics top-k migration — Shi et al.'s scheme and
the Fig. 9 k-sweep instrument.

:class:`ExactTopKDetector` keeps a full per-flow byte counter (the very
overhead the paper's AFD exists to avoid) and answers "is this flow in
the current top-k" exactly.  :class:`TopKMigrationScheduler` is a
hash-over-all-cores scheduler that, on overload, migrates the arriving
flow *iff* the detector says it is a top-k flow — LAPS's load-balancing
rule with a perfect detector and without service partitioning.

Setting ``k=0`` yields the "no migration" extreme; the Fig. 9 harness
sweeps k over {1, 2, 4, 8, 10, 16} against the AFS baseline.

Both the exact detector and an
:class:`~repro.core.afd.AggressiveFlowDetector` satisfy the same small
``observe / is_aggressive / invalidate`` protocol, so the scheduler also
serves as "LAPS's balancer with the real AFD" when handed one.
"""

from __future__ import annotations

import heapq
from collections import defaultdict

from repro.core.migration import MigrationTable
from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["ExactTopKDetector", "TopKMigrationScheduler"]


class ExactTopKDetector:
    """Exact software per-flow statistics (packet counts) with top-k
    membership queries.

    ``is_aggressive`` is O(k log n) in the worst case but amortised by a
    cached top-k set recomputed every ``refresh_every`` observations —
    mirroring how software stats would be summarised periodically for a
    hardware scheduler.
    """

    def __init__(
        self,
        k: int,
        refresh_every: int = 256,
        suppress_for: int = 16384,
    ) -> None:
        if k < 0:
            raise ConfigError(f"k must be >= 0, got {k}")
        if refresh_every <= 0:
            raise ConfigError(f"refresh_every must be positive, got {refresh_every}")
        if suppress_for < 0:
            raise ConfigError(f"suppress_for must be >= 0, got {suppress_for}")
        self.k = k
        self.refresh_every = refresh_every
        #: observations a flow stays non-aggressive after invalidation —
        #: the software analogue of the AFD's re-promotion latency (a
        #: just-migrated elephant must re-earn its AFC slot), which is
        #: what keeps elephants from hot-potatoing between cores.
        self.suppress_for = suppress_for
        self._counts: defaultdict[int, int] = defaultdict(int)
        self._top: set[int] = set()
        self._observed = 0
        self._since_refresh = 0
        self._suppressed_until: dict[int, int] = {}

    def observe(self, flow_id: int, weight: int = 1) -> None:
        self._counts[flow_id] += weight
        self._observed += 1
        self._since_refresh += 1
        if self._since_refresh >= self.refresh_every:
            self._refresh()

    def _refresh(self) -> None:
        self._since_refresh = 0
        if self.k == 0 or not self._counts:
            self._top = set()
            return
        top = heapq.nlargest(
            self.k, self._counts.items(), key=lambda kv: (kv[1], -kv[0])
        )
        self._top = {fid for fid, _ in top}

    def is_aggressive(self, flow_id: int) -> bool:
        if flow_id not in self._top:
            return False
        until = self._suppressed_until.get(flow_id)
        if until is not None:
            if self._observed < until:
                return False
            del self._suppressed_until[flow_id]
        return True

    def invalidate(self, flow_id: int) -> bool:
        """Suppress a just-migrated flow for ``suppress_for``
        observations (the AFC-invalidation analogue)."""
        self._suppressed_until[flow_id] = self._observed + self.suppress_for
        return flow_id in self._top

    def top_flows(self) -> list[int]:
        return sorted(self._top)

    def reset(self) -> None:
        """Forget every count, the top set and all suppressions."""
        self._counts.clear()
        self._top = set()
        self._observed = 0
        self._since_refresh = 0
        self._suppressed_until.clear()


@register_scheduler("topk")
class TopKMigrationScheduler(Scheduler):
    """Hash over all cores + migrate-on-overload gated by a detector."""

    def __init__(
        self,
        detector=None,
        k: int = 16,
        high_threshold: int = 24,
        migration_table_entries: int = 64,
        pin_weight: int = 16,
    ) -> None:
        super().__init__()
        if high_threshold <= 0:
            raise ConfigError(f"high_threshold must be positive, got {high_threshold}")
        if pin_weight < 0:
            raise ConfigError(f"pin_weight must be >= 0, got {pin_weight}")
        self.detector = detector if detector is not None else ExactTopKDetector(k)
        self.high_threshold = high_threshold
        self.pin_weight = pin_weight
        self.migration = MigrationTable(migration_table_entries)
        self.imbalance_events = 0
        self.migrations_installed = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        if self.high_threshold > loads.queue_capacity:
            raise ConfigError(
                f"high_threshold {self.high_threshold} exceeds queue capacity "
                f"{loads.queue_capacity}"
            )
        self.migration.reset()
        self.detector.reset()
        self.imbalance_events = 0
        self.migrations_installed = 0

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        self.detector.observe(flow_id)
        pinned = self.migration.lookup(flow_id)
        if pinned is not None:
            return pinned
        occ = self.loads.occ
        target = flow_hash % len(occ)
        if occ[target] >= self.high_threshold:
            self.imbalance_events += 1
            minq = self._min_queue_core()
            if (
                occ[minq] < self.high_threshold
                and self.detector.is_aggressive(flow_id)
            ):
                dest = self._placement_target(target)
                if dest is not None and dest != target:
                    self.migration.add(flow_id, dest)
                    self.detector.invalidate(flow_id)
                    self.migrations_installed += 1
                    return dest
        return target

    def _placement_target(self, exclude: int) -> int | None:
        """Least-loaded core, penalising cores already holding pins
        (same placement refinement as LAPS: a core that received an
        elephant microseconds ago has a lagging queue)."""
        best = None
        best_score = None
        for c, load in enumerate(self.loads.occ):
            if load >= self.high_threshold:
                continue
            score = load + self.pin_weight * self.migration.pins_on(c)
            if best_score is None or score < best_score:
                best, best_score = c, score
        return best

    def stats(self) -> dict[str, float]:
        return {
            "imbalance_events": self.imbalance_events,
            "migrations_installed": self.migrations_installed,
            "migration_table_evictions": self.migration.evictions,
        }
