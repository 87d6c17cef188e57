"""Tests for the repro-workloads CLI."""

import json

import pytest

from repro.workloads.cli import main
from repro.workloads.registry import workload_preset_names


class TestList:
    def test_table(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in workload_preset_names():
            assert name in out

    def test_json_catalog(self, capsys):
        assert main(["list", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["name"] for r in rows] == workload_preset_names()
        assert all("provenance" in r for r in rows)


class TestShow:
    def test_known(self, capsys):
        assert main(["show", "websearch-mmpp"]) == 0
        out = capsys.readouterr().out
        assert "mmpp" in out and "provenance" in out

    def test_unknown(self, capsys):
        assert main(["show", "nope"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestSample:
    def test_prints_shape(self, capsys):
        rc = main([
            "sample", "websearch", "--packets", "2000",
            "--duration-ms", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fingerprint:" in out and "flows:" in out

    @pytest.mark.parametrize("argv, message", [
        (["sample", "websearch", "--packets", "-3"],
         "error: num_packets must be positive, got -3"),
        (["sample", "websearch", "--duration-ms", "0"],
         "error: duration must be positive, got 0.0"),
        (["sample", "nope"],
         "error: unknown workload 'nope': available cache-mice, datamining, "
         "diurnal-flash, mmpp-bursty, replay-tiny, websearch, websearch-mmpp "
         "or pcap:<path>"),
        (["sample", "websearch", "--seed", "-1"],
         "error: seed must be a non-negative integer, got -1"),
    ], ids=["negative-packets", "zero-duration", "unknown-workload",
            "negative-seed"])
    def test_repro_error_exits_2_without_traceback(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()
        assert "Traceback" not in err


class TestSmoke:
    def test_quick_smoke_passes(self, capsys):
        assert main(["smoke", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all cells bit-identical" in out
