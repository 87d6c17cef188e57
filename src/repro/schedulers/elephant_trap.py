"""ElephantTrap — Lu et al.'s single-cache heavy-hitter detector.

The paper's Sec. VI cites this as the closest prior detector and argues
a *single* cache suffers many false positives because short-lived mice
constantly displace residents.  This model implements the single-level
equivalent of the AFD — one fully-associative LFU cache with
probabilistic admission — and satisfies the same
``observe / is_aggressive / invalidate / aggressive_flows /
false_positive_ratio`` protocol as the AFD so the Fig. 8 harness can put
the two head-to-head (the two-level ablation the paper's argument
rests on).
"""

from __future__ import annotations

import numpy as np

from repro.core.lfu import LFUCache
from repro.errors import ConfigError
from repro.util.rng import make_rng

__all__ = ["ElephantTrap"]


class ElephantTrap:
    """Single LFU cache with probabilistic insertion.

    ``admit_prob < 1`` is the original ElephantTrap trick: a miss only
    installs the flow with some probability, so elephants (many
    chances) enter eventually while one-packet mice usually do not.
    ``admit_prob=1`` degenerates to a plain LFU cache.
    """

    def __init__(
        self,
        entries: int = 16,
        admit_prob: float = 1.0,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if entries <= 0:
            raise ConfigError(f"entries must be positive, got {entries}")
        if not 0.0 < admit_prob <= 1.0:
            raise ConfigError(f"admit_prob must be in (0, 1], got {admit_prob}")
        self.cache = LFUCache(entries)
        self.admit_prob = admit_prob
        self._rng = make_rng(rng)
        self.observed = 0

    def observe(self, flow_id: int) -> None:
        self.observed += 1
        if self.cache.hit(flow_id):
            return
        if self.admit_prob >= 1.0 or self._rng.random() < self.admit_prob:
            self.cache.insert(flow_id)

    def is_aggressive(self, flow_id: int) -> bool:
        return flow_id in self.cache

    def invalidate(self, flow_id: int) -> bool:
        return self.cache.invalidate(flow_id)

    def aggressive_flows(self) -> list[int]:
        return [int(k) for k in self.cache.keys()]

    def false_positive_ratio(self, true_top: set[int]) -> float:
        entries = self.aggressive_flows()
        if not entries:
            return 0.0
        return sum(1 for f in entries if f not in true_top) / len(entries)

    def accuracy(self, true_top: set[int]) -> float:
        return 1.0 - self.false_positive_ratio(true_top)

    def reset(self) -> None:
        self.cache.clear()
        self.observed = 0
