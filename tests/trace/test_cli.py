"""Tests for the trace tooling CLI."""

import pytest

from repro.trace.cli import main
from repro.trace.trace import Trace


class TestGenerate:
    def test_generate_preset(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        assert main(["generate", "auck-1", str(out), "--packets", "500"]) == 0
        trace = Trace.load_npz(out)
        assert trace.num_packets == 500
        assert "wrote" in capsys.readouterr().out

    def test_unknown_preset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.npz")])


class TestAnalyze:
    def test_analyze_preset(self, capsys):
        assert main(["analyze", "auck-1", "--top", "4"]) == 0
        out = capsys.readouterr().out
        assert "top16_share" in out
        assert "top 4 flows" in out

    def test_analyze_npz(self, tmp_path, tiny_trace, capsys):
        path = tmp_path / "t.npz"
        tiny_trace.save_npz(path)
        assert main(["analyze", str(path), "--by", "packets"]) == 0
        assert "packets" in capsys.readouterr().out


class TestConvertAndExport:
    def test_roundtrip_via_pcap(self, tmp_path, tiny_trace, capsys):
        npz_in = tmp_path / "in.npz"
        pcap = tmp_path / "out.pcap.gz"
        npz_out = tmp_path / "back.npz"
        tiny_trace.save_npz(npz_in)

        assert main(["export-pcap", str(npz_in), str(pcap)]) == 0
        assert pcap.exists()
        assert main(["convert", str(pcap), str(npz_out)]) == 0

        back = Trace.load_npz(npz_out)
        assert back.num_packets == tiny_trace.num_packets
        assert back.num_flows == tiny_trace.num_flows


class TestErrors:
    @pytest.mark.parametrize("argv, message", [
        (["analyze", "nope"],
         "error: cannot read trace from nope: "
         "[Errno 2] No such file or directory: 'nope'"),
        (["generate", "caida-1", "out.npz", "--packets", "-5"],
         "error: num_packets must be >= 0, got -5"),
        (["analyze", "caida-1", "--top", "-1"],
         "error: k must be >= 0, got -1"),
    ], ids=["missing-trace", "negative-packets", "negative-top"])
    def test_repro_error_exits_2_without_traceback(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()
        assert "Traceback" not in err
