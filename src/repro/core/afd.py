"""The Aggressive Flow Detector (AFD) — paper Sec. III-F, Fig. 4.

Two fully-associative LFU caches:

* the **annex cache** (large, default 512 entries) — the qualifying
  station.  Every flow's first appearance lands here; only a flow that
  *proves locality* (its annex counter crosses ``promote_threshold``)
  is promoted;
* the **Aggressive Flow Cache** (AFC, small, default 16 entries) — holds
  the ids of the top aggressive flows.  "Flows that hit in the AFC are
  considered aggressive."

Per-packet protocol (exactly Fig. 4's arrows):

1. Probe the AFC.  Hit → increment its counter; done.
2. Probe the annex.  Hit → increment; if the counter now exceeds the
   threshold, promote to the AFC.  The AFC's LFU victim is demoted back
   into the annex (the annex doubles as a victim cache, giving flows
   "inertia" before they are fully excluded).
3. Miss in both → insert into the annex, evicting its LFU entry.

Optional **packet sampling** (Fig. 8c): each packet consults the AFD
with probability ``sample_prob``; sampling both cuts detector power and
— because an elephant is proportionally more likely to be sampled —
acts as a pre-filter that *improves* accuracy up to ~1/1000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.lfu import LFUCache
from repro.errors import ConfigError
from repro.util.rng import make_rng

__all__ = ["AFDConfig", "AggressiveFlowDetector"]


@dataclass(frozen=True)
class AFDConfig:
    """AFD sizing and policy knobs (defaults follow the paper)."""

    afc_entries: int = 16
    annex_entries: int = 512
    promote_threshold: int = 8
    sample_prob: float = 1.0

    def __post_init__(self) -> None:
        if self.afc_entries <= 0:
            raise ConfigError(f"afc_entries must be positive, got {self.afc_entries}")
        if self.annex_entries <= 0:
            raise ConfigError(f"annex_entries must be positive, got {self.annex_entries}")
        if self.promote_threshold < 1:
            raise ConfigError(
                f"promote_threshold must be >= 1, got {self.promote_threshold}"
            )
        if not 0.0 < self.sample_prob <= 1.0:
            raise ConfigError(f"sample_prob must be in (0, 1], got {self.sample_prob}")


class AggressiveFlowDetector:
    """Behavioural model of the two-level AFD hardware."""

    def __init__(
        self,
        config: AFDConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.config = config or AFDConfig()
        self.afc = LFUCache(self.config.afc_entries)
        self.annex = LFUCache(self.config.annex_entries)
        self._rng = make_rng(rng)
        self.promotions = 0
        self.demotions = 0
        self.observed = 0
        self.sampled = 0

    # ------------------------------------------------------------------
    # per-packet path
    # ------------------------------------------------------------------
    def observe(self, flow_id: int) -> None:
        """Account one packet of *flow_id* (honouring sampling): one
        probe of each level, as in Fig. 4."""
        self.observed += 1
        cfg = self.config
        if cfg.sample_prob < 1.0 and self._rng.random() >= cfg.sample_prob:
            return
        self.sampled += 1
        if self.afc.hit(flow_id):
            return
        count = self.annex.hit(flow_id)
        if not count:
            self.annex.insert(flow_id)
        elif count >= cfg.promote_threshold:
            self._try_promote(flow_id, count)

    def _try_promote(self, flow_id: int, count: int) -> None:
        """Promote annex -> AFC iff the candidate, at annex count
        *count*, out-ranks the AFC's weakest resident.

        "A flow deserves to enter AFC only if it proves its right to be
        in AFC" (Sec. III-F): crossing the annex threshold earns a
        *challenge*, not a slot.  A candidate that cannot beat the
        current LFU resident's count stays in the annex (its counter
        keeps growing, so a genuinely rising elephant wins a later
        challenge).  Without this rule the AFC permanently carries one
        just-promoted medium flow — a built-in false positive.

        Frequency counters travel with the flows in both directions:
        the promoted flow enters the AFC at its annex count, and the
        demoted victim re-enters the annex at its AFC count — so a
        displaced elephant keeps its standing (the victim-cache
        "inertia" of Sec. III-F) instead of restarting from one.
        """
        afc = self.afc
        victim_count = 0
        if afc.is_full:
            victim_count = afc.count(afc.lfu_key())
            if count <= victim_count:
                return  # challenge failed: stay in the annex
        self.annex.evict(flow_id)
        # a full AFC evicts its LFU resident, the victim counted above
        victim = afc.insert(flow_id, count)
        self.promotions += 1
        if victim is not None:
            self.annex.insert(victim, victim_count)
            self.demotions += 1

    # ------------------------------------------------------------------
    # scheduler-facing queries (Listing 1)
    # ------------------------------------------------------------------
    def is_aggressive(self, flow_id: int) -> bool:
        """``AFC.access(flowID)`` of Listing 1: membership test only
        (does not touch the counters — the load-balancer peeks, the
        packet path updates)."""
        return flow_id in self.afc

    def invalidate(self, flow_id: int) -> bool:
        """``AFC.invalidate(flowID)`` after the flow enters the
        migration table (Listing 1 line 8)."""
        return self.afc.invalidate(flow_id)

    def aggressive_flows(self) -> list[int]:
        """Current AFC residents (the detector's top-flow estimate)."""
        return [int(k) for k in self.afc.keys()]

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------
    def false_positive_ratio(self, true_top: set[int]) -> float:
        """``false positives / total AFC entries`` against an offline
        ground-truth set (Fig. 8a's metric).  Empty AFC → 0.0."""
        entries = self.aggressive_flows()
        if not entries:
            return 0.0
        fp = sum(1 for f in entries if f not in true_top)
        return fp / len(entries)

    def accuracy(self, true_top: set[int]) -> float:
        """Fraction of AFC entries that are true top flows (1 − FPR)."""
        return 1.0 - self.false_positive_ratio(true_top)

    def reset(self) -> None:
        """Clear both levels and statistics."""
        self.afc.clear()
        self.annex.clear()
        self.promotions = self.demotions = 0
        self.observed = self.sampled = 0
