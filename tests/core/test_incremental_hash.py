"""Tests for incremental (linear) hashing — Sec. III-C."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.incremental_hash import IncrementalHash
from repro.errors import ConfigError


class TestBasics:
    def test_initial_state(self):
        h = IncrementalHash(4)
        assert h.num_buckets == 4
        assert h.level_m == 4
        assert h.split_pointer == 0

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            IncrementalHash(0)

    def test_bucket_in_range(self):
        h = IncrementalHash(4)
        for k in range(100):
            assert 0 <= h.bucket_of(k) < 4

    def test_plain_modulo_at_level_start(self):
        h = IncrementalHash(4)
        assert all(h.bucket_of(k) == k % 4 for k in range(64))

    def test_negative_key_rejected(self):
        with pytest.raises(ConfigError):
            IncrementalHash(4).bucket_of(-1)


class TestGrow:
    def test_grow_returns_split_bucket(self):
        h = IncrementalHash(4)
        assert h.grow() == 0
        assert h.grow() == 1

    def test_paper_formula(self):
        """h(k) = h2(k) if h1(k) < b-m else h1(k), with h2 = k % 2m."""
        h = IncrementalHash(4)
        h.grow()  # b=5, split pointer 1
        for k in range(200):
            h1 = k % 4
            expected = (k % 8) if h1 < 1 else h1
            assert h.bucket_of(k) == expected

    def test_level_doubles_at_2m(self):
        h = IncrementalHash(4)
        for _ in range(4):
            h.grow()
        assert h.num_buckets == 8
        assert h.level_m == 8
        assert all(h.bucket_of(k) == k % 8 for k in range(64))

    def test_minimal_remap_property(self):
        """Growing by one bucket moves ONLY keys of the split bucket,
        and those move only to the new bucket."""
        h = IncrementalHash(4)
        keys = list(range(1000))
        for _ in range(7):
            before = [h.bucket_of(k) for k in keys]
            split = h.grow()
            new_bucket = h.num_buckets - 1
            after = [h.bucket_of(k) for k in keys]
            for b, a in zip(before, after):
                if b != a:
                    assert b == split
                    assert a == new_bucket

    @given(st.integers(1, 16), st.integers(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_bucket_always_in_range(self, m, grows):
        h = IncrementalHash(m)
        for _ in range(grows):
            h.grow()
        for k in range(0, 3000, 37):
            assert 0 <= h.bucket_of(k) < h.num_buckets


class TestShrink:
    def test_shrink_reverses_grow(self):
        h = IncrementalHash(4)
        keys = list(range(500))
        before = [h.bucket_of(k) for k in keys]
        h.grow()
        h.shrink()
        assert [h.bucket_of(k) for k in keys] == before
        assert h.num_buckets == 4 and h.level_m == 4

    def test_shrink_returns_fold_target(self):
        h = IncrementalHash(4)
        h.grow()  # b=5; bucket 4 splits bucket 0
        assert h.shrink() == 0

    def test_shrink_below_one_rejected(self):
        h = IncrementalHash(1)
        with pytest.raises(ValueError):
            h.shrink()

    def test_shrink_below_initial_even_level(self):
        h = IncrementalHash(4)
        h.shrink()
        assert h.num_buckets == 3
        for k in range(100):
            assert 0 <= h.bucket_of(k) < 3

    def test_shrink_below_odd_level_full_rehash(self):
        """An odd level has no bucket pairing; shrinking rebuilds a
        fresh level at b-1 and reports -1 (full rehash)."""
        h = IncrementalHash(3)
        assert h.shrink() == -1
        assert h.num_buckets == 2 and h.level_m == 2
        for k in range(100):
            assert h.bucket_of(k) == k % 2

    @given(st.integers(1, 5), st.lists(st.booleans(), max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_grow_shrink_random_walk_consistent(self, level_pow, steps):
        m = 2 ** level_pow
        h = IncrementalHash(m)
        for grow in steps:
            if grow:
                h.grow()
            else:
                try:
                    h.shrink()
                except ValueError:
                    continue
            assert 1 <= h.num_buckets
            for k in range(0, 500, 23):
                assert 0 <= h.bucket_of(k) < h.num_buckets


class TestResizeAndDiagnostics:
    def test_resize_to(self):
        h = IncrementalHash(4)
        h.resize_to(11)
        assert h.num_buckets == 11
        h.resize_to(2)
        assert h.num_buckets == 2

    def test_resize_invalid(self):
        with pytest.raises(ConfigError):
            IncrementalHash(4).resize_to(0)

    def test_remapped_fraction_small(self):
        h = IncrementalHash(8)
        frac = h.remapped_fraction(list(range(10_000)))
        # one of 8 buckets splits, half its keys move: ~1/16
        assert frac == pytest.approx(1 / 16, abs=0.01)

    def test_remapped_fraction_vs_full_rehash(self):
        """The point of Sec. III-C: incremental << naive %b rehash."""
        keys = list(range(5000))
        h = IncrementalHash(8)
        incremental = h.remapped_fraction(keys)
        naive = sum(1 for k in keys if k % 8 != k % 9) / len(keys)
        assert incremental < naive / 5

    def test_remapped_fraction_empty(self):
        assert IncrementalHash(4).remapped_fraction([]) == 0.0
