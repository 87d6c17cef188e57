"""Tests for the Table III core configuration."""

from repro.sim.latency import TABLE_III_CORE


class TestDefaults:
    def test_table3_config(self):
        assert TABLE_III_CORE.frequency_ghz == 1.0
        assert TABLE_III_CORE.icache_kb == 16
        assert TABLE_III_CORE.dcache_kb == 32
        assert TABLE_III_CORE.pipeline_stages == 7
