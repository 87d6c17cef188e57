"""Tests for the O(1) LFU cache, including a model-based property test
against a naive reference implementation."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lfu import LFUCache
from repro.errors import ConfigError


class NaiveLFU:
    """Reference model: dict + linear scans, same tie-break (FIFO among
    the minimum-count bucket by move-time)."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.counts = {}
        self.moved = {}  # key -> tick it last changed count
        self.tick = 0

    def _touch(self, key):
        self.tick += 1
        self.moved[key] = self.tick

    def hit(self, key):
        if key in self.counts:
            self.counts[key] += 1
            self._touch(key)
            return self.counts[key]
        return 0

    def lfu_key(self):
        return min(self.counts, key=lambda k: (self.counts[k], self.moved[k]))

    def insert(self, key, count=1):
        if key in self.counts:
            if self.counts[key] != count:
                self.counts[key] = count
                self._touch(key)
            return None
        victim = None
        if len(self.counts) >= self.capacity:
            victim = self.lfu_key()
            del self.counts[victim]
            del self.moved[victim]
        self.counts[key] = count
        self._touch(key)
        return victim

    def evict(self, key):
        self.moved.pop(key)
        return self.counts.pop(key)

    def order(self):
        """``(key, count)`` pairs in eviction order."""
        ranked = sorted(self.counts, key=lambda k: (self.counts[k], self.moved[k]))
        return [(k, self.counts[k]) for k in ranked]


def lfu_order(cache):
    """``(key, count)`` pairs of an :class:`LFUCache` in eviction order,
    read by evicting a copy's LFU entry until it is empty."""
    cache = copy.deepcopy(cache)
    out = []
    while len(cache):
        key = cache.lfu_key()
        out.append((key, cache.evict(key)))
    return out


class TestBasics:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LFUCache(0)

    def test_hit_miss(self):
        c = LFUCache(2)
        assert c.hit("a") == 0
        c.insert("a")
        assert c.hit("a") == 2
        assert c.count("a") == 2

    def test_eviction_of_lfu(self):
        c = LFUCache(2)
        c.insert("a")
        c.insert("b")
        c.hit("a")
        victim = c.insert("c")
        assert victim == "b"
        assert "b" not in c

    def test_tie_break_fifo(self):
        c = LFUCache(2)
        c.insert("a")
        c.insert("b")
        assert c.insert("c") == "a"  # both count 1; a is older

    def test_hit_refreshes_tie_position(self):
        c = LFUCache(3)
        for k in "abc":
            c.insert(k)
        c.hit("a")  # a now count 2
        assert c.insert("d") == "b"

    def test_insert_with_count(self):
        c = LFUCache(2)
        c.insert("a", 100)
        c.insert("b", 1)
        assert c.insert("c", 5) == "b"

    def test_reinsert_overwrites_count(self):
        c = LFUCache(2)
        c.insert("a", 5)
        assert c.insert("a", 1) is None
        assert c.count("a") == 1

    def test_invalidate(self):
        c = LFUCache(2)
        c.insert("a")
        assert c.invalidate("a")
        assert not c.invalidate("a")
        assert len(c) == 0

    def test_evict_returns_count(self):
        c = LFUCache(2)
        c.insert("a", 7)
        assert c.evict("a") == 7

    def test_evict_missing_raises(self):
        with pytest.raises(KeyError):
            LFUCache(2).evict("x")

    def test_lfu_key_empty_raises(self):
        with pytest.raises(KeyError):
            LFUCache(2).lfu_key()

    def test_clear(self):
        c = LFUCache(2)
        c.insert("a")
        c.clear()
        assert len(c) == 0 and not c.is_full

    def test_keys_and_iter(self):
        c = LFUCache(3)
        for k in "abc":
            c.insert(k)
        assert set(c.keys()) == set("abc")
        assert set(iter(c)) == set("abc")

    def test_is_full(self):
        c = LFUCache(1)
        assert not c.is_full
        c.insert("a")
        assert c.is_full

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            LFUCache(2).insert("a", -1)


class TestMinTracking:
    def test_min_recomputed_after_hit_empties_bucket(self):
        """Regression: hitting the only min-count key must not leave a
        stale minimum pointing at a higher bucket."""
        c = LFUCache(3)
        c.insert("a")          # count 1
        c.insert("b", 5)
        c.hit("a")             # a -> 2, bucket 1 empties
        assert c.lfu_key() == "a"

    def test_min_after_invalidating_min(self):
        c = LFUCache(3)
        c.insert("a", 1)
        c.insert("b", 5)
        c.invalidate("a")
        assert c.lfu_key() == "b"

    def test_min_after_reinsert_lower(self):
        c = LFUCache(3)
        c.insert("a", 5)
        c.insert("b", 7)
        c.insert("a", 2)
        assert c.lfu_key() == "a"


#: (op, key, count): ``evict`` takes the resident key at index
#: ``key % len`` (skipped when empty); ``count`` is read by ``insert``
ops = st.lists(
    st.tuples(
        st.sampled_from(["hit", "insert", "invalidate", "evict"]),
        st.integers(0, 12),
        st.integers(0, 12),
    ),
    max_size=200,
)


class TestModelEquivalence:
    @given(st.integers(1, 8), ops)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_reference(self, capacity, operations):
        fast = LFUCache(capacity)
        ref = NaiveLFU(capacity)
        for op, key, count in operations:
            if op == "hit":
                assert fast.hit(key) == ref.hit(key)
            elif op == "insert":
                assert fast.insert(key, count) == ref.insert(key, count)
            elif op == "evict":
                if not ref.counts:
                    continue
                resident = sorted(ref.counts)[key % len(ref.counts)]
                assert fast.evict(resident) == ref.evict(resident)
            else:
                present_ref = key in ref.counts
                if present_ref:
                    ref.evict(key)
                assert fast.invalidate(key) == present_ref
            # same residents and counts, in the same eviction order
            assert lfu_order(fast) == ref.order()
