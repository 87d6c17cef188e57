"""``stable_order`` against the numpy calls it stands for.

Every sort it replaces — the per-flow sequence numbering, the span
drain's core slotting and its two start/departure lexsorts — must get
the permutation of ``np.argsort(kind="stable")`` / ``np.lexsort``
exactly, on ties, on empty input and on keys too wide to pack.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.workload import _per_flow_sequences, next_sequences
from repro.util.sorting import stable_order

#: value ranges: heavy ties, a radix-sized range, a packed one, and one
#: too wide to pack with any index digit
RANGES = [(0, 3), (0, 60_000), (-(10**6), 10**9), (-(2**62), 2**62)]


@st.composite
def key_sets(draw, max_keys=3):
    n = draw(st.integers(0, 300))
    keys = []
    for _ in range(draw(st.integers(1, max_keys))):
        lo, hi = draw(st.sampled_from(RANGES))
        keys.append(
            np.array(
                draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n)),
                dtype=np.int64,
            )
        )
    return tuple(keys)


class TestStableOrder:
    @settings(max_examples=300, deadline=None)
    @given(key_sets())
    def test_equals_lexsort(self, keys):
        got = stable_order(keys)
        np.testing.assert_array_equal(got, np.lexsort(keys))

    @settings(max_examples=200, deadline=None)
    @given(key_sets(max_keys=1))
    def test_one_key_equals_stable_argsort(self, keys):
        got = stable_order(keys)
        np.testing.assert_array_equal(got, np.argsort(keys[0], kind="stable"))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40),
        st.lists(st.integers(0, 39), min_size=0, max_size=400),
    )
    def test_core_slotting(self, n_cores, cores):
        # the span drain's slotting key: core ids in [0, n_cores)
        core = np.array([c % n_cores for c in cores], dtype=np.int64)
        np.testing.assert_array_equal(
            stable_order((core,)), np.argsort(core, kind="stable")
        )

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert stable_order((empty,)).shape == (0,)
        assert stable_order((empty, empty, empty)).shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 5000])
    def test_all_ties_keep_index_order(self, n):
        same = np.full(n, 7, dtype=np.int64)
        np.testing.assert_array_equal(stable_order((same, same)), np.arange(n))

    def test_wide_keys_take_the_fallback(self):
        # two 40-bit keys: 80 bits packed, past the 62-bit bound
        rng = np.random.default_rng(0)
        wide = rng.integers(0, 1 << 40, size=(2, 1000))
        wide[:, 500:] = wide[:, :500]  # ties
        keys = (wide[0], wide[1])
        np.testing.assert_array_equal(stable_order(keys), np.lexsort(keys))

    def test_bool_key(self):
        kind = np.array([True, False, True, False])
        t = np.array([5, 5, 3, 3])
        np.testing.assert_array_equal(
            stable_order((kind, t)), np.lexsort((kind, t))
        )


def _reference_sequences(flow, counters):
    seen = dict(enumerate(counters.tolist()))
    out = []
    for f in flow.tolist():
        out.append(seen.get(f, 0))
        seen[f] = seen.get(f, 0) + 1
    return out, [seen.get(i, 0) for i in range(len(counters))]


class TestNextSequences:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 29), max_size=300),
        st.lists(st.integers(0, 50), min_size=30, max_size=30),
    )
    def test_continues_the_counters(self, flows, start):
        flow = np.array(flows, dtype=np.int64)
        counters = np.array(start, dtype=np.int64)
        want, want_counters = _reference_sequences(flow, counters)
        got = next_sequences(flow, counters)
        assert got.tolist() == want
        assert counters.tolist() == want_counters

    def test_chunked_equals_whole(self):
        rng = np.random.default_rng(3)
        flow = rng.integers(0, 500, size=20_000)
        whole = _per_flow_sequences(flow, 500)
        counters = np.zeros(500, dtype=np.int64)
        parts = [
            next_sequences(flow[a:b], counters)
            for a, b in [(0, 7), (7, 7), (7, 9000), (9000, 20_000)]
        ]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
