"""Tests for metrics accumulation and the report object."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.metrics import SimMetrics, SimReport
from repro.util.stats import summarize


def finalize(metrics, **kw):
    defaults = dict(
        duration_ns=1_000_000,
        out_of_order=0,
        scheduler_name="test",
        scheduler_stats={},
        migrated_flows=0,
    )
    defaults.update(kw)
    return metrics.finalize(**defaults)


class TestFinalize:
    def test_utilization_from_busy_time(self):
        m = SimMetrics(1, 2)
        m.busy_ns_per_core[0] = 500_000
        m.busy_ns_per_core[1] = 1_000_000
        rep = finalize(m)
        assert rep.core_utilization == (0.5, 1.0)
        assert rep.observed_ns == 1_000_000

    def test_utilization_uses_drain_horizon(self):
        """Busy time accrued while draining after the last arrival must
        not produce utilisation > 1: the denominator is the observed
        horizon (last departure), not the workload duration."""
        m = SimMetrics(1, 1)
        m.busy_ns_per_core[0] = 1_500_000   # kept busy through the drain
        m.last_depart_ns = 1_500_000
        rep = finalize(m)                    # duration_ns=1_000_000
        assert rep.observed_ns == 1_500_000
        assert rep.core_utilization == (1.0,)

    def test_utilization_bounded(self):
        """0 <= util <= 1 whenever busy intervals fit the horizon."""
        m = SimMetrics(1, 4)
        m.busy_ns_per_core[:] = [0, 400_000, 999_999, 1_200_000]
        m.last_depart_ns = 1_200_000
        rep = finalize(m)
        assert all(0.0 <= u <= 1.0 for u in rep.core_utilization)

    def test_underload_keeps_duration_horizon(self):
        """When the run ends before the nominal duration, idle tail
        still counts: horizon stays at duration_ns."""
        m = SimMetrics(1, 1)
        m.busy_ns_per_core[0] = 250_000
        m.last_depart_ns = 500_000
        rep = finalize(m)
        assert rep.observed_ns == 1_000_000
        assert rep.core_utilization == (0.25,)

    def test_latency_summary(self):
        m = SimMetrics(1, 1)
        m.latencies_ns.append(np.array([100, 200, 300], dtype=np.int64))
        rep = finalize(m)
        assert m.latency_samples().tolist() == [100, 200, 300]
        assert rep.latency_ns["mean"] == pytest.approx(200)

    def test_no_latencies_zeroed(self):
        rep = finalize(SimMetrics(1, 1))
        assert rep.latency_ns["p99"] == 0.0

    @given(
        batches=st.lists(
            st.tuples(
                st.lists(st.integers(0, 10**12), max_size=40), st.booleans()
            ),
            max_size=12,
        )
    )
    def test_chunked_samples_match_a_list(self, batches):
        """Booking departure batches as int64 chunks, with the samples
        read back at random points, gives the samples, count and
        summary of the per-sample list it replaces."""
        m = SimMetrics(1, 1)
        ref: list[int] = []
        for lat, read in batches:
            if lat:  # a booking that departed something
                m.latencies_ns.append(np.array(lat, dtype=np.int64))
                ref.extend(lat)
            if read:
                assert m.latency_samples().tolist() == ref
        samples = m.latency_samples()
        assert samples.dtype == np.int64
        assert samples.tolist() == ref
        assert len(m.latencies_ns) == (1 if ref else 0)
        rep = finalize(m)
        if ref:
            assert rep.latency_ns == summarize(ref)
        else:
            assert set(rep.latency_ns.values()) == {0.0}


class TestReportDerived:
    def make(self, **kw):
        defaults = dict(
            scheduler="x", duration_ns=int(1e9), generated=1000, dropped=100,
            departed=900, out_of_order=45, cold_cache_events=90,
            flow_migration_events=9, migrated_flows=3,
            generated_per_service=(1000,), dropped_per_service=(100,),
            core_utilization=(0.5, 0.5),
        )
        defaults.update(kw)
        return SimReport(**defaults)

    def test_fractions(self):
        rep = self.make()
        assert rep.drop_fraction == pytest.approx(0.1)
        assert rep.ooo_fraction == pytest.approx(0.05)
        assert rep.cold_cache_fraction == pytest.approx(0.1)
        assert rep.migration_fraction == pytest.approx(0.01)

    def test_zero_denominators(self):
        rep = self.make(generated=0, departed=0)
        assert rep.drop_fraction == 0.0
        assert rep.ooo_fraction == 0.0

    def test_throughput(self):
        rep = self.make()
        assert rep.throughput_pps == pytest.approx(900.0)

    def test_fairness(self):
        assert self.make().load_fairness == pytest.approx(1.0)

    def test_as_row_keys(self):
        row = self.make().as_row()
        assert row["scheduler"] == "x"
        assert "drop_frac" in row and "ooo_frac" in row

    def test_relative_to(self):
        base = self.make()
        other = self.make(dropped=50, out_of_order=9)
        rel = other.relative_to(base)
        assert rel["dropped"] == pytest.approx(0.5)
        assert rel["out_of_order"] == pytest.approx(0.2)

    def test_relative_to_zero_baseline_nan(self):
        base = self.make(out_of_order=0)
        rel = self.make().relative_to(base)
        assert math.isnan(rel["out_of_order"])
