"""Tests for statistics helpers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    gini,
    jain_fairness,
    normalize,
    percentile,
    ratio_or_nan,
    summarize,
)

nonneg_vectors = st.lists(
    st.floats(min_value=0, max_value=1e9, allow_nan=False), min_size=1, max_size=50
)


class TestJainFairness:
    def test_balanced_is_one(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_loaded_is_one_over_n(self):
        assert jain_fairness([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_is_one(self):
        assert jain_fairness([0, 0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([1, -1])

    @given(nonneg_vectors)
    def test_bounds(self, xs):
        f = jain_fairness(xs)
        assert 1.0 / len(xs) - 1e-9 <= f <= 1.0 + 1e-9

    @given(nonneg_vectors, st.floats(min_value=0.1, max_value=10))
    def test_scale_invariant(self, xs, k):
        scaled = [x * k for x in xs]
        assert jain_fairness(scaled) == pytest.approx(jain_fairness(xs), rel=1e-6)


class TestGini:
    def test_equal_is_zero(self):
        assert gini([3, 3, 3]) == pytest.approx(0.0)

    def test_concentrated_near_one(self):
        g = gini([0] * 99 + [100])
        assert g > 0.95

    def test_all_zero(self):
        assert gini([0, 0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    @given(nonneg_vectors)
    def test_bounds(self, xs):
        g = gini(xs)
        assert -1e-9 <= g <= 1.0

    def test_order_invariant(self):
        assert gini([1, 5, 2]) == pytest.approx(gini([5, 1, 2]))


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_extremes(self):
        assert percentile([1, 9], 0) == 1
        assert percentile([1, 9], 100) == 9

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestNormalize:
    def test_sums_to_one(self):
        out = normalize([1, 2, 3])
        assert out.sum() == pytest.approx(1.0)

    def test_all_zero_uniform(self):
        np.testing.assert_allclose(normalize([0, 0]), [0.5, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize([])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize([1, -2])


class TestRatioOrNan:
    def test_plain(self):
        assert ratio_or_nan(6, 3) == 2.0

    def test_zero_denominator(self):
        assert math.isnan(ratio_or_nan(1, 0))

    def test_zero_numerator(self):
        assert ratio_or_nan(0, 5) == 0.0


class TestSummarize:
    def test_keys(self):
        s = summarize([1, 2, 3])
        assert set(s) == {"mean", "min", "max", "p50", "p95", "p99"}

    def test_values(self):
        s = summarize([2, 4, 6])
        assert s["mean"] == pytest.approx(4.0)
        assert s["min"] == 2
        assert s["max"] == 6

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @given(
        st.one_of(
            st.lists(
                st.integers(-(2**62), 2**62), min_size=1, max_size=300
            ).map(lambda v: np.array(v, dtype=np.int64)),
            st.lists(
                st.floats(-1e12, 1e12, allow_nan=False), min_size=1, max_size=300
            ).map(lambda v: np.array(v, dtype=np.float64)),
        )
    )
    def test_percentiles_bit_equal_single_quantile_calls(self, x):
        """The one-partition p50/p95/p99 equal three single-quantile
        ``np.percentile`` calls on the same float64 vector, bit for bit."""
        s = summarize(x)
        ref = np.asarray(x, dtype=np.float64)
        for q in (50, 95, 99):
            assert s[f"p{q}"].hex() == float(np.percentile(ref, q)).hex()
