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
from repro.util.rng import make_rng

__all__ = ["AFDConfig", "AggressiveFlowDetector"]


@dataclass(frozen=True)
class AFDConfig:
    """AFD sizing and policy knobs (defaults follow the paper).

    ``decay_every`` is an optional extension beyond the paper (in the
    spirit of Zadnik & Canini's evolved replacement policies, cited as
    [40]): every N *sampled* packets all counters in both levels are
    halved, so the detector tracks current rates instead of lifetime
    totals — useful on long nonstationary streams where yesterday's
    elephant should eventually yield its AFC slot.
    """

    afc_entries: int = 16
    annex_entries: int = 512
    promote_threshold: int = 8
    sample_prob: float = 1.0
    demote_victims: bool = True  # annex as victim cache for AFC evictees
    decay_every: int | None = None
    decay_shift: int = 1

    def __post_init__(self) -> None:
        if self.afc_entries <= 0:
            raise ValueError(f"afc_entries must be positive, got {self.afc_entries}")
        if self.annex_entries <= 0:
            raise ValueError(f"annex_entries must be positive, got {self.annex_entries}")
        if self.promote_threshold < 1:
            raise ValueError(
                f"promote_threshold must be >= 1, got {self.promote_threshold}"
            )
        if not 0.0 < self.sample_prob <= 1.0:
            raise ValueError(f"sample_prob must be in (0, 1], got {self.sample_prob}")
        if self.decay_every is not None and self.decay_every <= 0:
            raise ValueError(
                f"decay_every must be positive or None, got {self.decay_every}"
            )
        if self.decay_shift < 1:
            raise ValueError(f"decay_shift must be >= 1, got {self.decay_shift}")


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
        """Account one packet of *flow_id* (honouring sampling)."""
        self.observed += 1
        if self.config.sample_prob < 1.0 and self._rng.random() >= self.config.sample_prob:
            return
        self.sampled += 1
        decay_every = self.config.decay_every
        if decay_every is not None and self.sampled % decay_every == 0:
            self.afc.decay(self.config.decay_shift)
            self.annex.decay(self.config.decay_shift)
        self._observe_sampled(flow_id)

    def _observe_sampled(self, flow_id: int) -> None:
        if self.afc.hit(flow_id):
            return
        if self.annex.hit(flow_id):
            if self.annex.count(flow_id) >= self.config.promote_threshold:
                self._try_promote(flow_id)
            return
        self.annex.insert(flow_id)

    # ------------------------------------------------------------------
    # batched path (the kernel's span drain)
    # ------------------------------------------------------------------
    def observe_batch(self, flow_ids: np.ndarray) -> None:
        """Account a committed span of packets — bit-identical to
        calling :meth:`observe` once per element, in order.

        The scalar protocol is restructured, never weakened:

        * the sampling mask is one ``rng.random(n) < sample_prob`` draw
          (stream-identical to n successive scalar draws for the numpy
          ``Generator``);
        * decay boundaries follow from ``sampled``-counter arithmetic,
          splitting the span into decay-delimited segments;
        * within a segment, AFC-resident hits collapse to a single
          bincount-style counter merge and annex hits that provably
          cannot promote accumulate into one bucket hop per flow
          (:meth:`LFUCache.merge_hits`);
        * only the residual annex-insert / promotion-attempt
          subsequence replays through the exact scalar path, with all
          pending merges flushed first so every structural read (LFU
          victim choice, challenge counts) sees the scalar state.
        """
        flow_ids = np.asarray(flow_ids)
        n = int(flow_ids.size)
        if n == 0:
            return
        self.observed += n
        cfg = self.config
        if cfg.sample_prob < 1.0:
            keep = self._rng.random(n) < cfg.sample_prob
            flow_ids = flow_ids[keep]
        m = int(flow_ids.size)
        s0 = self.sampled
        self.sampled = s0 + m
        if m == 0:
            return
        every = cfg.decay_every
        if every is None:
            self._observe_segment(flow_ids)
            return
        # decay fires *before* the boundary-rank packet is observed
        # (scalar: the ``sampled % decay_every`` check precedes
        # ``_observe_sampled``), so rank r = every - s0 % every starts
        # a fresh post-decay segment
        r = every - (s0 % every)
        lo = 0
        shift = cfg.decay_shift
        while r <= m:
            if r - 1 > lo:
                self._observe_segment(flow_ids[lo:r - 1])
            self.afc.decay(shift)
            self.annex.decay(shift)
            lo = r - 1
            r += every
        if lo < m:
            self._observe_segment(flow_ids[lo:])

    def _observe_segment(self, fids: np.ndarray) -> None:
        """One decay-free stretch: AFC membership only changes when a
        promotion lands, so process it as runs of frozen AFC residency,
        recomputing the residency vectors after each membership
        change."""
        start = 0
        n = int(fids.size)
        while start < n:
            start = self._observe_run(fids, start)

    def _observe_run(self, fids: np.ndarray, start: int) -> int:
        """Process ``fids[start:]`` until the end or the first AFC
        membership change (a successful promotion); returns the index
        to resume from.

        Exactness argument, per packet class:

        * **AFC-resident** (residency frozen for the run): a pure
          counter hit.  All such hits merge via one bincount +
          :meth:`LFUCache.merge_hits`, flushed before any reader of
          AFC counts (a promotion challenge) and at run end.
        * **Annex hit that cannot promote**: either the count stays
          below ``promote_threshold``, or the AFC is full and the
          flow's count cannot exceed the AFC's minimum — which is
          non-decreasing within a decay-free segment — so the scalar
          challenge would fail without touching state.  Both cases are
          pure counter hits; they accumulate per flow and merge in
          last-occurrence order.
        * **Everything else** (annex miss → insert, or a challenge
          that could succeed) replays through the exact scalar
          operations.  Before an insert must evict, the scalar victim
          is read off the lazy state directly: scalar bucket 1 is the
          lazy count-1 bucket minus the pending keys (a pending flow's
          scalar count sits strictly above the lazy minimum, and fresh
          inserts arrive in identical FIFO order), so the first
          non-pending key of lazy bucket 1 is provably the scalar LFU
          victim; only when no such key exists do the pending merges
          flush first.  A challenge flushes both caches
          unconditionally.
        """
        afc = self.afc
        annex = self.annex
        cfg = self.config
        threshold = cfg.promote_threshold
        rem = fids[start:] if start else fids
        num_afc = len(afc._counts)
        if num_afc:
            skeys = np.sort(
                np.fromiter(afc._counts.keys(), dtype=np.int64, count=num_afc)
            )
            slot = np.searchsorted(skeys, rem)
            np.minimum(slot, num_afc - 1, out=slot)
            afc_mask = skeys[slot] == rem
            afc_rel = np.nonzero(afc_mask)[0]
            afc_slot = slot[afc_rel]
            walk_rel = np.nonzero(~afc_mask)[0]
            walk_fids = rem[walk_rel].tolist()
        else:
            skeys = afc_rel = afc_slot = walk_rel = None
            walk_fids = rem.tolist()
        afc_full = num_afc >= afc.capacity
        afc_floor = afc._min_count if afc_full else 0
        annex_counts = annex._counts
        annex_cap = annex.capacity
        annex_insert = annex.insert
        pending: dict[int, int] = {}
        #: a pended flow whose stored count is 0 (possible right after a
        #: decay) may merge into frequency bucket 1 — the bucket fresh
        #: inserts append to — so inserts must flush first to keep the
        #: scalar FIFO order
        pending_zero = False
        afc_flushed = 0
        afc_misses = 0
        annex_misses = 0
        for i, f in enumerate(walk_fids):
            afc_misses += 1  # scalar probes (and misses) the AFC first
            count = annex_counts.get(f)
            if count is None:
                annex_misses += 1
                if pending:
                    if pending_zero:
                        annex.merge_hits(pending.keys(), pending.values())
                        pending = {}
                        pending_zero = False
                    elif len(annex_counts) >= annex_cap:
                        # scalar bucket 1 is exactly the lazy bucket 1
                        # minus the pending keys (their scalar counts
                        # sit strictly above the lazy minimum), so the
                        # scalar LFU victim is the first non-pending
                        # key of lazy bucket 1 — evict it directly and
                        # keep accumulating; flush only when no such
                        # key exists
                        victim = None
                        if annex._min_count == 1:
                            for cand in annex._buckets[1]:
                                if cand not in pending:
                                    victim = cand
                                    break
                        if victim is None:
                            annex.merge_hits(pending.keys(), pending.values())
                            pending = {}
                        else:
                            annex.evict(victim)
                            annex.evictions += 1
                annex_insert(f)
                continue
            delta = pending.get(f, 0)
            new_count = count + delta + 1
            if new_count < threshold or (afc_full and new_count <= afc_floor):
                if delta:
                    del pending[f]  # re-append: dict order = last occurrence
                elif count == 0:
                    pending_zero = True
                pending[f] = delta + 1
                continue
            # genuine promotion attempt: flush, then exact scalar replay
            pos = int(walk_rel[i]) if walk_rel is not None else i
            afc_flushed = self._flush_afc(
                skeys, afc_rel, afc_slot, afc_flushed, pos
            )
            if pending:
                annex.merge_hits(pending.keys(), pending.values())
                pending = {}
                pending_zero = False
            afc.misses += afc_misses
            annex.misses += annex_misses
            afc_misses = annex_misses = 0
            promotions = self.promotions
            annex.hit(f)
            self._try_promote(f)
            if self.promotions != promotions:
                # membership changed: residency vectors are stale
                return start + pos + 1
            if afc_full:
                afc_floor = afc._min_count  # only ever grows in-segment
        if afc_rel is not None:
            self._flush_afc(skeys, afc_rel, afc_slot, afc_flushed, rem.size)
        if pending:
            annex.merge_hits(pending.keys(), pending.values())
        afc.misses += afc_misses
        annex.misses += annex_misses
        return int(fids.size)

    def _flush_afc(self, skeys, afc_rel, afc_slot, flushed: int, upto: int) -> int:
        """Merge the AFC-resident hits at run-relative positions
        ``afc_rel[flushed:]`` that fall before *upto*; returns the new
        flushed prefix length."""
        if afc_rel is None:
            return flushed
        j = int(np.searchsorted(afc_rel, upto))
        if j > flushed:
            span = afc_slot[flushed:j]
            deltas = np.bincount(span, minlength=skeys.size)
            last = np.full(skeys.size, -1, dtype=np.int64)
            last[span] = np.arange(span.size)  # duplicate index: last wins
            keys, counts = [], []
            for s in np.argsort(last, kind="stable").tolist():
                if last[s] >= 0:
                    keys.append(int(skeys[s]))
                    counts.append(int(deltas[s]))
            self.afc.merge_hits(keys, counts)
        return j

    def _try_promote(self, flow_id: int) -> None:
        """Promote annex -> AFC iff the candidate out-ranks the AFC's
        weakest resident.

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
        victim = None
        victim_count = 0
        if self.afc.is_full:
            victim = self.afc.lfu_key()
            victim_count = self.afc.count(victim)
            if self.annex.count(flow_id) <= victim_count:
                return  # challenge failed: stay in the annex
            self.afc.evict(victim)
        count = self.annex.evict(flow_id)
        self.afc.insert(flow_id, count)
        self.promotions += 1
        if victim is not None and self.config.demote_victims:
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
