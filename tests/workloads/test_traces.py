"""Tests for CDF trace generation and the unified resolver."""

import numpy as np
import pytest

import repro.workloads.traces as traces_mod
from repro.errors import ConfigError
from repro.trace.synthetic import preset_trace
from repro.workloads.traces import (
    CDF_TRACE_PRESETS,
    CDFTraceConfig,
    cdf_preset_trace,
    generate_cdf_trace,
    resolve_trace,
    trace_preset_names,
)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=0)
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=100, mtu=0)
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=100, concurrency=0)
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=100, max_flow_packets=0)
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=100, max_flow_fraction=0.0)
        with pytest.raises(ConfigError):
            CDFTraceConfig(num_packets=100, mean_rate_pps=0.0)

    def test_unknown_distribution(self):
        cfg = CDFTraceConfig(num_packets=100, distribution="nope")
        with pytest.raises(ConfigError, match="unknown size distribution"):
            cfg.resolve_distribution()


class TestGeneration:
    def test_exact_packet_count(self):
        for n in (1, 97, 5000):
            trace = generate_cdf_trace(
                CDFTraceConfig(num_packets=n, distribution="websearch")
            )
            assert trace.num_packets == n

    def test_deterministic(self):
        cfg = CDFTraceConfig(num_packets=2000, distribution="datamining", seed=4)
        a, b = generate_cdf_trace(cfg), generate_cdf_trace(cfg)
        assert a.fingerprint() == b.fingerprint()

    def test_flow_cap_respected(self):
        cfg = CDFTraceConfig(
            num_packets=4000, distribution="datamining",
            max_flow_packets=50, max_flow_fraction=1.0, seed=1,
        )
        trace = generate_cdf_trace(cfg)
        assert np.bincount(trace.flow_id).max() <= 50

    def test_fractional_cap_scales_down(self):
        # a short websearch trace must not collapse into one huge flow
        trace = generate_cdf_trace(
            CDFTraceConfig(num_packets=2000, distribution="websearch",
                           max_flow_fraction=0.05, seed=0)
        )
        counts = np.bincount(trace.flow_id)
        assert counts.max() <= 100  # 5% of 2000
        assert trace.num_flows > 10

    def test_sizes_bounded_by_mtu(self):
        trace = generate_cdf_trace(
            CDFTraceConfig(num_packets=3000, distribution="cache-mice", seed=2)
        )
        assert trace.size_bytes.min() >= 64
        assert trace.size_bytes.max() <= 1500

    def test_trains_interleave(self):
        # with concurrency > 1 a multi-packet flow's packets must not
        # all be consecutive
        trace = generate_cdf_trace(
            CDFTraceConfig(num_packets=3000, distribution="websearch",
                           concurrency=32, seed=3)
        )
        fid = trace.flow_id
        runs = np.diff(np.flatnonzero(np.diff(fid) != 0)).max()
        assert runs < 3000  # not one giant run
        # adjacent packets mostly belong to different flows
        assert float((fid[1:] != fid[:-1]).mean()) > 0.5


class TestPresets:
    def test_twelve_presets(self):
        assert len(CDF_TRACE_PRESETS) == 12
        for stem in ("websearch", "datamining", "cachemice"):
            for i in range(1, 5):
                assert f"{stem}-{i}" in CDF_TRACE_PRESETS

    def test_siblings_differ(self):
        a = cdf_preset_trace("websearch-1", num_packets=1000)
        b = cdf_preset_trace("websearch-2", num_packets=1000)
        assert a.fingerprint() != b.fingerprint()

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown CDF trace preset"):
            cdf_preset_trace("websearch-9")

    def test_preset_names_cover_both_families(self):
        names = trace_preset_names()
        assert "caida-1" in names and "websearch-1" in names


class TestResolve:
    def test_resolves_cdf_and_synthetic(self):
        a = resolve_trace("websearch-1", num_packets=800)
        b = resolve_trace("caida-1", num_packets=800)
        assert a.num_packets == b.num_packets == 800
        assert a.fingerprint() == cdf_preset_trace(
            "websearch-1", num_packets=800).fingerprint()
        assert b.fingerprint() == preset_trace(
            "caida-1", num_packets=800).fingerprint()

    def test_resolves_npz_path(self, tmp_path):
        trace = preset_trace("caida-1", num_packets=600)
        path = tmp_path / "t.npz"
        trace.save_npz(path)
        loaded = resolve_trace(str(path))
        assert loaded.fingerprint() == trace.fingerprint()
        head = resolve_trace(str(path), num_packets=100)
        assert head.num_packets == 100

    def test_unknown_name_lists_presets(self):
        with pytest.raises(ConfigError, match="unknown trace"):
            resolve_trace("not-a-preset")


@pytest.fixture
def empty_cache():
    """Start and end with no preset built, so counts are this test's."""
    traces_mod._built_preset.cache_clear()
    yield traces_mod._built_preset
    traces_mod._built_preset.cache_clear()


def _counting(monkeypatch, name):
    """Count the calls *name* (a generator resolve_trace calls) gets."""
    calls = []
    real = getattr(traces_mod, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(traces_mod, name, spy)
    return calls


class TestPresetCache:
    """resolve_trace builds each preset once per process and hands out
    read-only traces; .npz paths are read afresh."""

    @pytest.mark.parametrize("name", ["caida-1", "websearch-1"])
    def test_every_column_is_read_only(self, empty_cache, name):
        trace = resolve_trace(name, num_packets=300)
        cols = [v for v in vars(trace).values() if isinstance(v, np.ndarray)]
        assert len(cols) == 8
        for col in cols:
            with pytest.raises(ValueError, match="read-only"):
                col[0] = 1
        # so is a head() of it, which shares the columns
        with pytest.raises(ValueError, match="read-only"):
            trace.head(10).flow_id[0] = 1

    @pytest.mark.parametrize(
        "name, generator",
        [("auck-1", "preset_trace"), ("cachemice-2", "cdf_preset_trace")],
    )
    def test_second_resolve_does_not_generate(
        self, empty_cache, monkeypatch, name, generator
    ):
        calls = _counting(monkeypatch, generator)
        first = resolve_trace(name, num_packets=500)
        again = resolve_trace(name, num_packets=500)
        assert again is first
        assert len(calls) == 1
        other = resolve_trace(name, num_packets=400)
        assert len(calls) == 2 and other.num_packets == 400

    def test_cached_trace_equals_a_fresh_build(self, empty_cache):
        resolve_trace("caida-2", num_packets=700)
        cached = resolve_trace("caida-2", num_packets=700)
        assert cached.fingerprint() == preset_trace(
            "caida-2", num_packets=700).fingerprint()

    def test_cache_never_grows_past_its_bound(self, empty_cache):
        bound = traces_mod._PRESET_CACHE_ENTRIES
        assert empty_cache.cache_info().maxsize == bound
        for size in range(1, bound + 6):
            resolve_trace("auck-2", num_packets=size)
            assert empty_cache.cache_info().currsize <= bound
        assert empty_cache.cache_info().currsize == bound

    def test_npz_path_is_read_fresh(self, empty_cache, tmp_path):
        path = tmp_path / "t.npz"
        preset_trace("caida-1", num_packets=600).save_npz(path)
        first = resolve_trace(str(path))
        rewritten = preset_trace("auck-1", num_packets=250)
        rewritten.save_npz(path)
        second = resolve_trace(str(path))
        assert second.num_packets == 250
        assert second.fingerprint() == rewritten.fingerprint()
        assert first.num_packets == 600
        assert empty_cache.cache_info().currsize == 0
        # a path's trace stays the caller's to write
        second.flow_id[0] = 0
