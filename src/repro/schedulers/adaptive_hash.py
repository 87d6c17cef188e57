"""Adaptive hashing — Shi & Kencl's sequence-preserving load sharing.

The paper (Sec. VI) calls adaptive hashing *complementary* to LAPS:
instead of reacting to queue overflow, the bucket->core map is
re-balanced **periodically** from measured per-bucket load, moving the
lightest set of buckets needed to flatten the projected per-core load.
Packets still hash to buckets, so flow locality and order are preserved
except for the flows of re-assigned buckets.

This scheduler exists as the extension point the paper suggests: its
periodic EWMA-driven re-balance can be compared against (or combined
with) AFS's reactive shifts and LAPS's elephant pins in the ablation
bench.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import ConfigError
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["AdaptiveHashScheduler"]


@register_scheduler("adaptive-hash")
class AdaptiveHashScheduler(Scheduler):
    """Periodic bucket re-balancing from per-bucket packet counts."""

    #: the periodic rebalance moves buckets from *global* per-bucket
    #: packet counts — a core-partitioned shard sees only its own
    #: packets, so its rebalances would diverge from a single-process
    #: run.  Not shardable by core group.
    shard_static = False

    def __init__(
        self,
        buckets_per_core: int = 16,
        rebalance_every_ns: int = units.ms(1),
        ewma_alpha: float = 0.3,
        max_moves_per_round: int = 4,
    ) -> None:
        super().__init__()
        if buckets_per_core <= 0:
            raise ConfigError(
                f"buckets_per_core must be positive, got {buckets_per_core}"
            )
        if rebalance_every_ns <= 0:
            raise ConfigError(
                f"rebalance_every_ns must be positive, got {rebalance_every_ns}"
            )
        if not 0.0 < ewma_alpha <= 1.0:
            raise ConfigError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        if max_moves_per_round < 1:
            raise ConfigError(
                f"max_moves_per_round must be >= 1, got {max_moves_per_round}"
            )
        self.buckets_per_core = buckets_per_core
        self.rebalance_every_ns = rebalance_every_ns
        self.ewma_alpha = ewma_alpha
        self.max_moves_per_round = max_moves_per_round
        self._bucket_to_core: list[int] = []
        self._bucket_count: list[int] = []   # packets this round
        self._bucket_rate: list[float] = []  # EWMA across rounds
        self._next_rebalance_ns = 0
        self.rebalances = 0
        self.bucket_moves = 0

    def bind(self, loads) -> None:
        super().bind(loads)
        n = loads.num_cores
        num_buckets = n * self.buckets_per_core
        self._bucket_to_core = [b % n for b in range(num_buckets)]
        self._bucket_count = [0] * num_buckets
        self._bucket_rate = [0.0] * num_buckets
        self._next_rebalance_ns = self.rebalance_every_ns
        self.rebalances = 0
        self.bucket_moves = 0

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        bucket = flow_hash % len(self._bucket_to_core)
        self._bucket_count[bucket] += 1
        if t_ns >= self._next_rebalance_ns:
            self._rebalance()
            # catch up in case of long arrival gaps
            while self._next_rebalance_ns <= t_ns:
                self._next_rebalance_ns += self.rebalance_every_ns
        return self._bucket_to_core[bucket]

    def assign_batch(self, flow_hash, service_id, flow_id, arrival_ns):
        """Vectorized map lookup for the span up to (excluding) the
        first arrival that would trigger a rebalance.

        Within that span the map cannot change: only ``_rebalance``
        mutates it, it fires only from a ``select_core`` call with
        ``t >= _next_rebalance_ns``, and every such call — the boundary
        arrival itself or a fault-path reassignment (whose timestamp
        never exceeds the current arrival's) — lies at or beyond the
        boundary.  So a pure lookup is exact.  The per-packet count
        increment is *not* done here: :meth:`batch_commit` replicates
        it per consumed entry, keeping the counts bit-identical to the
        scalar path under any consumption pattern (replans, abandoned
        columns, checkpoints resumed in either mode).  The boundary
        packet falls to scalar ``select_core``, fires the rebalance,
        bumps ``map_epoch`` and thereby forces a replan.
        """
        cut = int(np.searchsorted(arrival_ns, self._next_rebalance_ns, side="left"))
        if cut == 0:
            return np.empty(0, dtype=np.int64)
        nb = len(self._bucket_to_core)
        b2c = np.asarray(self._bucket_to_core, dtype=np.int64)
        return b2c[flow_hash[:cut] % nb]

    def batch_commit(self, flow_id: int, flow_hash: int) -> None:
        """The unconditional per-packet work of ``select_core``: count
        the packet's bucket (the rebalance trigger can't fire inside a
        planned span, so only the increment is replicated)."""
        self._bucket_count[flow_hash % len(self._bucket_to_core)] += 1

    def batch_commit_span(self, flow_id, flow_hash) -> None:
        """Vectorized :meth:`batch_commit`: one bincount for the whole
        span instead of one list increment per packet.  Counts stay
        plain ints so the state remains bit-identical to scalar runs."""
        nb = len(self._bucket_to_core)
        counts = np.bincount(flow_hash % nb, minlength=nb)
        bc = self._bucket_count
        for b in np.nonzero(counts)[0]:
            bc[b] += int(counts[b])

    def _rebalance(self) -> None:
        """Move the lightest adequate buckets from the most- to the
        least-loaded cores (at most ``max_moves_per_round``)."""
        self.rebalances += 1
        # the map may change below; conservatively invalidate any
        # planned column even on a zero-move round
        self.map_epoch += 1
        a = self.ewma_alpha
        for b, count in enumerate(self._bucket_count):
            self._bucket_rate[b] = (1 - a) * self._bucket_rate[b] + a * count
            self._bucket_count[b] = 0

        n = self.loads.num_cores
        core_load = [0.0] * n
        for b, core in enumerate(self._bucket_to_core):
            core_load[core] += self._bucket_rate[b]
        mean = sum(core_load) / n
        if mean == 0.0:
            return

        for _ in range(self.max_moves_per_round):
            hot = max(range(n), key=lambda c: core_load[c])
            cold = min(range(n), key=lambda c: core_load[c])
            gap = core_load[hot] - core_load[cold]
            if core_load[hot] - mean <= 0.05 * mean:
                break
            # any bucket with 0 < rate < gap strictly improves balance;
            # among those, pick the one leaving hot and cold closest
            best_bucket = -1
            best_after = gap
            for b, core in enumerate(self._bucket_to_core):
                if core != hot:
                    continue
                rate = self._bucket_rate[b]
                if not 0.0 < rate < gap:
                    continue
                after = abs(gap - 2.0 * rate)
                if after < best_after:
                    best_after, best_bucket = after, b
            if best_bucket < 0:
                break
            rate = self._bucket_rate[best_bucket]
            self._bucket_to_core[best_bucket] = cold
            core_load[hot] -= rate
            core_load[cold] += rate
            self.bucket_moves += 1

    def stats(self) -> dict[str, float]:
        return {"rebalances": self.rebalances, "bucket_moves": self.bucket_moves}
