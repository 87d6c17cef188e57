"""Tests for the Aggressive Flow Detector (annex + AFC)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.afd import AFDConfig, AggressiveFlowDetector
from repro.util.rng import make_rng
from tests.core.test_lfu import NaiveLFU, lfu_order


def feed(afd, flow_ids):
    for f in flow_ids:
        afd.observe(int(f))


def stream(weights, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.choice(len(weights), size=n, p=np.asarray(weights) / sum(weights))


class TestConfig:
    def test_defaults(self):
        cfg = AFDConfig()
        assert cfg.afc_entries == 16
        assert cfg.annex_entries == 512

    @pytest.mark.parametrize(
        "kw",
        [
            {"afc_entries": 0},
            {"annex_entries": 0},
            {"promote_threshold": 0},
            {"sample_prob": 0.0},
            {"sample_prob": 1.5},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(ValueError):
            AFDConfig(**kw)


class TestPromotionMechanics:
    def test_flow_enters_annex_first(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=3))
        afd.observe(1)
        assert 1 in afd.annex and not afd.is_aggressive(1)

    def test_promotion_at_threshold(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=3))
        feed(afd, [1, 1, 1])
        assert afd.is_aggressive(1)
        assert 1 not in afd.annex
        assert afd.promotions == 1

    def test_afc_hits_counted_in_afc(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=2))
        feed(afd, [1, 1, 1, 1])
        assert afd.afc.count(1) == 4

    def test_challenge_blocks_weak_candidate(self):
        """A threshold-crosser must beat the AFC's weakest resident."""
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=2, promote_threshold=2, annex_entries=8)
        )
        feed(afd, [1] * 10 + [2] * 10)  # AFC = {1, 2} with high counts
        feed(afd, [3, 3])  # crosses threshold but count 2 < resident counts
        assert not afd.is_aggressive(3)
        assert 3 in afd.annex

    def test_challenge_eventually_won(self):
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=2, promote_threshold=2, annex_entries=8)
        )
        feed(afd, [1] * 5 + [2] * 5)
        feed(afd, [3] * 20)  # outgrows the weakest resident
        assert afd.is_aggressive(3)

    def test_victim_demoted_with_count(self):
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=1, promote_threshold=2, annex_entries=8)
        )
        feed(afd, [1] * 5)       # AFC = {1: 5}
        feed(afd, [2] * 10)      # 2 beats 1; 1 demoted to the annex
        assert afd.is_aggressive(2)
        assert afd.annex.count(1) == 5
        assert afd.demotions == 1


class TestSchedulerInterface:
    def test_invalidate(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=2))
        feed(afd, [1, 1])
        assert afd.invalidate(1)
        assert not afd.is_aggressive(1)
        assert not afd.invalidate(1)

    def test_aggressive_flows_listing(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=2))
        feed(afd, [1, 1, 2, 2])
        assert set(afd.aggressive_flows()) == {1, 2}

    def test_reset(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=2))
        feed(afd, [1, 1])
        afd.reset()
        assert afd.aggressive_flows() == []
        assert afd.observed == 0 and afd.promotions == 0


class TestAccuracyMetrics:
    def test_fpr_empty_afc(self):
        afd = AggressiveFlowDetector()
        assert afd.false_positive_ratio({1, 2}) == 0.0

    def test_fpr_counts_outsiders(self):
        afd = AggressiveFlowDetector(AFDConfig(promote_threshold=2))
        feed(afd, [1, 1, 2, 2])
        assert afd.false_positive_ratio({1}) == pytest.approx(0.5)
        assert afd.accuracy({1}) == pytest.approx(0.5)

    def test_detects_elephants_in_skewed_stream(self):
        """End-to-end: top-4 of a skewed stream land in the AFC."""
        weights = [100, 90, 80, 70] + [1] * 60
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=4, annex_entries=32, promote_threshold=4)
        )
        feed(afd, stream(weights, 20_000))
        assert afd.accuracy({0, 1, 2, 3}) >= 0.75


class TestSampling:
    def test_sampling_thins_observations(self):
        afd = AggressiveFlowDetector(AFDConfig(sample_prob=0.1), rng=0)
        feed(afd, [1] * 1000)
        assert afd.observed == 1000
        assert 40 < afd.sampled < 250

    def test_full_sampling(self):
        afd = AggressiveFlowDetector(AFDConfig(sample_prob=1.0))
        feed(afd, [1] * 10)
        assert afd.sampled == 10

    def test_sampling_deterministic_with_seed(self):
        a = AggressiveFlowDetector(AFDConfig(sample_prob=0.5), rng=3)
        b = AggressiveFlowDetector(AFDConfig(sample_prob=0.5), rng=3)
        feed(a, range(100))
        feed(b, range(100))
        assert a.sampled == b.sampled
        assert a.annex.keys() == b.annex.keys()


class TestInvariants:
    def test_flow_never_in_both_levels(self):
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=4, annex_entries=8, promote_threshold=2)
        )
        rng = np.random.default_rng(1)
        for f in rng.integers(0, 30, size=5000):
            afd.observe(int(f))
            both = set(afd.afc.keys()) & set(afd.annex.keys())
            if both:
                pytest.fail(f"flows resident in both levels: {both}")

    def test_afc_never_exceeds_capacity(self):
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=4, annex_entries=8, promote_threshold=2)
        )
        rng = np.random.default_rng(2)
        for f in rng.integers(0, 30, size=5000):
            afd.observe(int(f))
        assert len(afd.afc) <= 4
        assert len(afd.annex) <= 8


class NaiveAFD:
    """Reference detector: Fig. 4's arrows and the promotion challenge
    over two :class:`NaiveLFU` levels, drawing the same sampling
    numbers as :class:`AggressiveFlowDetector` from the same seed."""

    def __init__(self, config, rng=None):
        self.config = config
        self._rng = make_rng(rng)
        self.reset()

    def reset(self):
        self.afc = NaiveLFU(self.config.afc_entries)
        self.annex = NaiveLFU(self.config.annex_entries)
        self.promotions = self.demotions = 0
        self.observed = self.sampled = 0

    def observe(self, flow_id):
        cfg = self.config
        self.observed += 1
        if cfg.sample_prob < 1.0 and self._rng.random() >= cfg.sample_prob:
            return
        self.sampled += 1
        if self.afc.hit(flow_id):
            return
        if not self.annex.hit(flow_id):
            self.annex.insert(flow_id)
            return
        count = self.annex.counts[flow_id]
        if count < cfg.promote_threshold:
            return
        victim = None
        if len(self.afc.counts) >= self.afc.capacity:
            victim = self.afc.lfu_key()
            if count <= self.afc.counts[victim]:
                return
            victim_count = self.afc.evict(victim)
        self.annex.evict(flow_id)
        self.afc.insert(flow_id, count)
        self.promotions += 1
        if victim is not None:
            self.annex.insert(victim, victim_count)
            self.demotions += 1

    def is_aggressive(self, flow_id):
        return flow_id in self.afc.counts

    def invalidate(self, flow_id):
        if flow_id in self.afc.counts:
            self.afc.evict(flow_id)
            return True
        return False


def detector_state(afd):
    """Both levels in eviction order, with counts, and the counters."""
    if isinstance(afd, NaiveAFD):
        levels = (afd.afc.order(), afd.annex.order())
    else:
        levels = (lfu_order(afd.afc), lfu_order(afd.annex))
    return levels + (afd.promotions, afd.demotions, afd.observed, afd.sampled)


#: a few hot flows among many cold ones, so promotions, failed
#: challenges and demotions all happen in short sequences
flow_ids = st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, 40)), min_size=30, max_size=300
)


class TestNaiveTwin:
    @given(
        afc=st.integers(1, 4),
        annex=st.integers(2, 16),
        threshold=st.integers(1, 8),
        sample_prob=st.sampled_from([1.0, 0.5]),
        seed=st.integers(0, 2**16),
        flows=flow_ids,
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_detector(self, afc, annex, threshold, sample_prob, seed, flows):
        cfg = AFDConfig(
            afc_entries=afc, annex_entries=annex,
            promote_threshold=threshold, sample_prob=sample_prob,
        )
        fast = AggressiveFlowDetector(cfg, rng=seed)
        ref = NaiveAFD(cfg, rng=seed)
        for flow in flows:
            fast.observe(flow)
            ref.observe(flow)
            assert detector_state(fast) == detector_state(ref)
