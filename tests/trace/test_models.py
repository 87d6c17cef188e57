"""Tests for the statistical traffic models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.hashing.five_tuple import PROTO_TCP, PROTO_UDP
from repro.trace.models import (
    FlowPopulation,
    PacketSizeModel,
    TRIMODAL_INTERNET_SIZES,
    _first_new,
    _tuple_keys,
    capped_zipf_weights,
    elephant_mice_weights,
    zipf_weights,
)


class TestZipfWeights:
    def test_sums_to_one(self):
        assert zipf_weights(100, 1.1).sum() == pytest.approx(1.0)

    def test_sorted_descending(self):
        w = zipf_weights(50, 0.8)
        assert np.all(np.diff(w) <= 0)

    def test_alpha_zero_uniform(self):
        np.testing.assert_allclose(zipf_weights(4, 0.0), [0.25] * 4)

    def test_single_flow(self):
        np.testing.assert_allclose(zipf_weights(1, 2.0), [1.0])

    def test_invalid_n_rejected(self):
        with pytest.raises(ConfigError):
            zipf_weights(0, 1.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ConfigError):
            zipf_weights(10, -0.5)

    @given(st.integers(2, 200), st.floats(0.0, 2.5))
    def test_rank_size_law(self, n, alpha):
        w = zipf_weights(n, alpha)
        # w_r / w_1 == r^-alpha
        assert w[n // 2] / w[0] == pytest.approx((n // 2 + 1) ** -alpha, rel=1e-9)


class TestCappedZipf:
    def test_respects_cap(self):
        w = capped_zipf_weights(100, 1.5, cap=0.05)
        assert w.max() <= 0.05 + 1e-12

    def test_sums_to_one(self):
        assert capped_zipf_weights(100, 1.5, cap=0.05).sum() == pytest.approx(1.0)

    def test_no_clipping_when_cap_loose(self):
        raw = zipf_weights(10, 0.5)
        capped = capped_zipf_weights(10, 0.5, cap=1.0)
        np.testing.assert_allclose(capped, raw)

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ConfigError):
            capped_zipf_weights(10, 1.0, cap=0.05)  # 10 * 0.05 < 1

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigError):
            capped_zipf_weights(10, 1.0, cap=0.0)

    @given(
        st.integers(10, 300),
        st.floats(0.0, 2.0),
        st.floats(0.01, 0.5),
    )
    @settings(max_examples=50)
    def test_waterfill_invariants(self, n, alpha, cap):
        if cap * n < 1.0:
            cap = 1.5 / n
        w = capped_zipf_weights(n, alpha, cap)
        assert w.sum() == pytest.approx(1.0)
        assert w.max() <= cap * (1 + 1e-9)
        assert np.all(w >= 0)
        # still non-increasing
        assert np.all(np.diff(w) <= 1e-12)


class TestElephantMice:
    def test_shares(self):
        w = elephant_mice_weights(1000, 20, 0.5)
        assert w[:20].sum() == pytest.approx(0.5)
        assert w.sum() == pytest.approx(1.0)

    def test_classes_separated(self):
        w = elephant_mice_weights(1000, 20, 0.5)
        assert w[19] > w[20]

    def test_sorted_descending(self):
        w = elephant_mice_weights(500, 10, 0.4)
        assert np.all(np.diff(w) <= 1e-15)

    def test_overlap_rejected(self):
        # tiny elephant share over many elephants vs few heavy mice
        with pytest.raises(ConfigError):
            elephant_mice_weights(30, 20, 0.05, alpha_elephants=2.0, alpha_mice=0.0)

    def test_bad_counts_rejected(self):
        with pytest.raises(ConfigError):
            elephant_mice_weights(10, 0, 0.5)
        with pytest.raises(ConfigError):
            elephant_mice_weights(10, 10, 0.5)

    def test_bad_share_rejected(self):
        with pytest.raises(ConfigError):
            elephant_mice_weights(10, 2, 1.0)


class TestPacketSizeModel:
    def test_trimodal_valid(self):
        assert TRIMODAL_INTERNET_SIZES.mean == pytest.approx(
            40 * 0.58 + 576 * 0.33 + 1500 * 0.09
        )

    def test_sample_support(self, rng):
        out = TRIMODAL_INTERNET_SIZES.sample(500, rng)
        assert set(np.unique(out)) <= {40, 576, 1500}
        assert out.dtype == np.int32

    def test_sample_zero(self):
        assert TRIMODAL_INTERNET_SIZES.sample(0, 1).shape == (0,)

    def test_sample_negative_rejected(self):
        with pytest.raises(ConfigError):
            TRIMODAL_INTERNET_SIZES.sample(-1, 1)

    def test_deterministic_model(self):
        m = PacketSizeModel((64,), (1.0,))
        assert set(m.sample(10, 0)) == {64}

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            PacketSizeModel((1, 2), (0.5, 0.6))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ConfigError):
            PacketSizeModel((1, 2), (1.0,))

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigError):
            PacketSizeModel((0,), (1.0,))

    def test_sample_distribution_roughly_matches(self, rng):
        out = TRIMODAL_INTERNET_SIZES.sample(20_000, rng)
        frac_40 = float((out == 40).mean())
        assert frac_40 == pytest.approx(0.58, abs=0.03)


class TestFlowPopulation:
    def test_sample_shape(self, rng):
        pop = FlowPopulation.sample(100, 1.0, rng)
        assert pop.num_flows == 100
        assert pop.weights.shape == (100,)

    def test_five_tuples_distinct(self, rng):
        pop = FlowPopulation.sample(200, 1.0, rng)
        keys = set(
            zip(pop.src_ip.tolist(), pop.dst_ip.tolist(), pop.src_port.tolist(),
                pop.dst_port.tolist(), pop.proto.tolist())
        )
        assert len(keys) == 200

    def test_deterministic(self):
        a = FlowPopulation.sample(50, 1.0, 3)
        b = FlowPopulation.sample(50, 1.0, 3)
        np.testing.assert_array_equal(a.src_ip, b.src_ip)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_explicit_weights(self, rng):
        w = np.array([0.5, 0.3, 0.2])
        pop = FlowPopulation.sample(3, 0.0, rng, weights=w)
        np.testing.assert_allclose(pop.weights, w)

    def test_weights_length_checked(self, rng):
        with pytest.raises(ConfigError):
            FlowPopulation.sample(3, 0.0, rng, weights=np.array([1.0]))

    def test_weight_cap_applied(self, rng):
        pop = FlowPopulation.sample(100, 2.0, rng, weight_cap=0.05)
        assert pop.weights.max() <= 0.05 + 1e-12

    def test_tcp_fraction_bounds(self, rng):
        with pytest.raises(ConfigError):
            FlowPopulation.sample(10, 1.0, rng, tcp_fraction=1.5)

    def test_protocols_valid(self, rng):
        pop = FlowPopulation.sample(100, 1.0, rng)
        assert set(np.unique(pop.proto)) <= {6, 17}

    def test_zero_flows_rejected(self, rng):
        with pytest.raises(ConfigError, match="need at least one flow, got 0"):
            FlowPopulation.sample(0, 1.0, rng)


def set_loop_tuples(num_flows, rng, tcp_fraction=0.85):
    """Reference: the per-flow ``set`` loop ``FlowPopulation.sample``
    de-duplicated its 5-tuple draws with before it used numpy."""
    seen = set()
    cols = (
        np.empty(num_flows, dtype=np.uint32),
        np.empty(num_flows, dtype=np.uint32),
        np.empty(num_flows, dtype=np.uint16),
        np.empty(num_flows, dtype=np.uint16),
        np.empty(num_flows, dtype=np.uint8),
    )
    filled = 0
    while filled < num_flows:
        need = num_flows - filled
        batch = max(need, 16)
        src = rng.integers(0x0A000000, 0x0AFFFFFF, size=batch, dtype=np.uint32)
        dst = rng.integers(0xC0A80000, 0xDFFFFFFF, size=batch, dtype=np.uint32)
        sport = rng.integers(1024, 65535, size=batch, dtype=np.uint16)
        dport = rng.choice(
            np.array([80, 443, 53, 22, 25, 8080, 5060, 1194], dtype=np.uint16),
            size=batch,
        )
        proto = np.where(
            rng.random(batch) < tcp_fraction, PROTO_TCP, PROTO_UDP
        ).astype(np.uint8)
        for i in range(batch):
            key = (int(src[i]), int(dst[i]), int(sport[i]), int(dport[i]), int(proto[i]))
            if key in seen:
                continue
            seen.add(key)
            cols[0][filled] = src[i]
            cols[1][filled] = dst[i]
            cols[2][filled] = sport[i]
            cols[3][filled] = dport[i]
            cols[4][filled] = proto[i]
            filled += 1
            if filled == num_flows:
                break
    return cols


class TinyRng(np.random.Generator):
    """A generator whose address, port and destination-port draws each
    land on three values: 108 distinct 5-tuples in all, so a sample of
    a few dozen flows collides, re-draws, and ends on short batches."""

    def integers(self, low, high=None, size=None, dtype=np.int64):
        return (low + super().integers(0, 3, size=size)).astype(dtype)

    def choice(self, a, size=None):
        return super().choice(np.asarray(a)[:3], size=size)


#: field values at the edges of each packed key's bit range
_EDGE = {
    "src": (0, 1, 0xFFFFFFFF),
    "dst": (0, 1, 0xFFFFFFFF),
    "sport": (0, 1, 0xFFFF),
    "dport": (0, 0xFF, 0xFFFF),
    "proto": (0, 6, 0xFF),
}
_DTYPES = (np.uint32, np.uint32, np.uint16, np.uint16, np.uint8)
_tuples = st.lists(
    st.tuples(*(st.sampled_from(v) for v in _EDGE.values())), max_size=40
)


def _columns(rows):
    return tuple(
        np.array([r[i] for r in rows], dtype=dt) for i, dt in enumerate(_DTYPES)
    )


class TestVectorizedDedup:
    """The numpy de-duplication twins the ``set`` loop it replaced."""

    @given(seen_rows=_tuples, rows=_tuples)
    def test_first_new_matches_a_set(self, seen_rows, rows):
        seen = set(seen_rows)
        expected = []
        for i, row in enumerate(rows):
            if row not in seen:
                seen.add(row)
                expected.append(i)
        got = _first_new(_tuple_keys(*_columns(seen_rows)), _tuple_keys(*_columns(rows)))
        assert got.tolist() == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_flows=st.integers(1, 80),
        tcp_fraction=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=60)
    def test_sample_matches_set_loop_on_a_tiny_space(
        self, seed, num_flows, tcp_fraction
    ):
        if tcp_fraction in (0.0, 1.0):
            num_flows = min(num_flows, 40)  # one protocol: 54 tuples
        want = set_loop_tuples(
            num_flows, TinyRng(np.random.PCG64(seed)), tcp_fraction
        )
        pop = FlowPopulation.sample(
            num_flows, 0.0, TinyRng(np.random.PCG64(seed)), tcp_fraction
        )
        got = (pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto)
        for w, g in zip(want, got):
            assert g.dtype == w.dtype
            np.testing.assert_array_equal(g, w)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    @pytest.mark.parametrize("num_flows", [1, 16, 1000])
    def test_sample_matches_set_loop_on_real_draws(self, seed, num_flows):
        want = set_loop_tuples(num_flows, np.random.default_rng(seed))
        pop = FlowPopulation.sample(num_flows, 0.0, seed)
        got = (pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto)
        for w, g in zip(want, got):
            np.testing.assert_array_equal(g, w)
