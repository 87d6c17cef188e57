"""AFS — Arbitrary Flow Shift (Dittmann's scheme, the paper's main
baseline).

Hash-based dispatch through a bucket table over *all* cores (no service
awareness): ``bucket = CRC16(5-tuple) % B``, each bucket pinned to a
core (round-robin initially).  When an arriving packet's target core is
overloaded (queue ≥ ``high_threshold``) and the migration cooldown has
expired, the packet's whole **bucket** is remapped to the least-loaded
core.

This is "arbitrary flow shift": the migrated bundle contains whatever
flows happen to hash there — overwhelmingly mice plus maybe an elephant
— so load does get balanced (buckets carry ~1/B of the traffic), but
*every* flow in the bundle suffers a migration: each pays the FM
penalty on its next packet and risks reordering.  Figs. 7 and 9
quantify exactly this pathology against LAPS's migrate-only-elephants
rule.

``cooldown_ns`` rate-limits remaps (load monitoring in [11] is
periodic, not per-packet); without it a saturated system would thrash
buckets on every arrival.
"""

from __future__ import annotations

from repro import units
from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["AFSScheduler"]


@register_scheduler("afs")
class AFSScheduler(Scheduler):
    """Global bucket hash + arbitrary-bucket migration on overload."""

    def __init__(
        self,
        buckets_per_core: int = 16,
        high_threshold: int = 24,
        cooldown_ns: int = units.ms(1),
    ) -> None:
        super().__init__()
        if buckets_per_core <= 0:
            raise ConfigError(
                f"buckets_per_core must be positive, got {buckets_per_core}"
            )
        if high_threshold <= 0:
            raise ConfigError(f"high_threshold must be positive, got {high_threshold}")
        if cooldown_ns < 0:
            raise ConfigError(f"cooldown_ns must be >= 0, got {cooldown_ns}")
        self.buckets_per_core = buckets_per_core
        self.high_threshold = high_threshold
        self.cooldown_ns = cooldown_ns
        self._bucket_to_core: list[int] = []
        self._last_migration_ns = -(1 << 62)
        self.imbalance_events = 0
        self.bucket_migrations = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        if self.high_threshold > loads.queue_capacity:
            raise ConfigError(
                f"high_threshold {self.high_threshold} exceeds queue capacity "
                f"{loads.queue_capacity}"
            )
        n = loads.num_cores
        num_buckets = n * self.buckets_per_core
        self._bucket_to_core = [b % n for b in range(num_buckets)]
        self._last_migration_ns = -(1 << 62)
        self.imbalance_events = 0
        self.bucket_migrations = 0

    @property
    def num_buckets(self) -> int:
        return len(self._bucket_to_core)

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        bucket = flow_hash % len(self._bucket_to_core)
        target = self._bucket_to_core[bucket]
        occ = self.loads.occ
        if occ[target] >= self.high_threshold:
            self.imbalance_events += 1
            if t_ns - self._last_migration_ns >= self.cooldown_ns:
                minq = self._min_queue_core()
                if minq != target and occ[minq] < self.high_threshold:
                    # shift the whole bucket -- every flow in it migrates
                    self._bucket_to_core[bucket] = minq
                    self._last_migration_ns = t_ns
                    self.bucket_migrations += 1
                    return minq
        return target

    def stats(self) -> dict[str, float]:
        return {
            "imbalance_events": self.imbalance_events,
            "bucket_migrations": self.bucket_migrations,
        }
