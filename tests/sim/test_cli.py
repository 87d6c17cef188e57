"""Tests for the simulation CLI."""

import pytest

from repro.sim.cli import main
from tests.faults.test_events import BAD_SPECS, write_spec


class TestCompare:
    def test_single_service_presets(self, capsys):
        rc = main([
            "compare", "--trace", "auck-1", "--packets", "5000",
            "--cores", "4", "--duration-ms", "2",
            "--schedulers", "hash-static", "laps",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheduler comparison" in out
        assert "laps" in out and "hash-static" in out

    def test_multiservice(self, capsys):
        rc = main([
            "compare", "--trace", "caida-1", "--packets", "5000",
            "--cores", "8", "--duration-ms", "2", "--multiservice",
            "--schedulers", "fcfs", "laps",
        ])
        assert rc == 0
        assert "cold %" in capsys.readouterr().out

    def test_npz_source(self, tmp_path, tiny_trace, capsys):
        path = tmp_path / "t.npz"
        tiny_trace.save_npz(path)
        rc = main([
            "compare", "--trace", str(path), "--cores", "2",
            "--duration-ms", "1", "--utilisation", "0.5",
            "--schedulers", "fcfs",
        ])
        assert rc == 0

    def test_pcap_source(self, tmp_path, capsys):
        from repro.hashing.five_tuple import FiveTuple
        from repro.trace.pcap import write_pcap

        pcap = tmp_path / "c.pcap"
        key = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 5, 6, 6)
        write_pcap(pcap, [(i * 1000, key, 100) for i in range(20)])
        rc = main([
            "compare", "--pcap", str(pcap), "--cores", "2",
            "--duration-ms", "1", "--schedulers", "fcfs",
        ])
        assert rc == 0
        assert "[pcap]" in capsys.readouterr().out

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            main(["compare", "--schedulers", "bogus"])

    def test_config_error_exits_2_without_traceback(self, capsys):
        # afs's overload threshold (24) does not fit a 16-deep queue
        rc = main([
            "compare", "--packets", "2000", "--duration-ms", "1",
            "--cores", "2", "--queue-depth", "16", "--schedulers", "afs",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: high_threshold 24 exceeds queue capacity 16" in err
        assert "Traceback" not in err

    def test_negative_seed_exits_2_without_traceback(self, capsys):
        rc = main([
            "compare", "--packets", "2000", "--duration-ms", "1",
            "--cores", "2", "--schedulers", "fcfs", "--seed", "-1",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags, message", [
        (["--services", "-3"], "--services must be >= 1, got -3"),
        (["--services", "0"], "--services must be >= 1, got 0"),
        (["--shards", "0"], "--shards must be >= 1, got 0"),
        (["--shards", "-2"], "--shards must be >= 1, got -2"),
        (["--shards", "2", "--shard-workers", "-1"],
         "--shard-workers must be >= 0 (0 = auto), got -1"),
    ], ids=["services-negative", "services-zero", "shards-zero",
            "shards-negative", "shard-workers-negative"])
    def test_bad_count_exits_2(self, flags, message, capsys):
        rc = main([
            "compare", "--packets", "2000", "--duration-ms", "0.5",
            "--cores", "4", "--schedulers", "hash-static", *flags,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err.splitlines()
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_bad_faults_file_exits_2(self, tmp_path, case, capsys):
        path, message = write_spec(tmp_path, case)
        rc = main([
            "compare", "--packets", "2000", "--duration-ms", "0.5",
            "--cores", "4", "--schedulers", "hash-static",
            "--faults", str(path),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: {message}" in err.splitlines()
        assert "Traceback" not in err

    def test_missing_pcap_workload_exits_2(self, tmp_path, capsys):
        path = tmp_path / "no-such.pcap"
        rc = main(["compare", "--workload", f"pcap:{path}", "--cores", "2"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot open pcap {path}: No such file or directory" in err
        assert "Traceback" not in err


class TestSharded:
    def test_sharded_row_matches_single_process(self, capsys):
        args = [
            "compare", "--trace", "auck-1", "--packets", "5000",
            "--cores", "4", "--duration-ms", "2",
            "--schedulers", "hash-static",
        ]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--shards", "2", "--shard-workers", "1"]) == 0
        sharded = capsys.readouterr().out
        assert "[shards] 2 shards" in sharded
        row = next(
            line for line in single.splitlines()
            if line.startswith("hash-static")
        )
        assert row in sharded  # the comparison-table row is identical

    def test_generic_services_flag(self, capsys):
        # --services N replicates a generic service N ways; LAPS then
        # shards per service group, hash-static per core group
        rc = main([
            "compare", "--trace", "caida-1", "--packets", "4000",
            "--cores", "8", "--duration-ms", "1", "--services", "2",
            "--schedulers", "hash-static", "laps",
            "--shards", "2", "--shard-workers", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[shards] 2 shards" in out
        assert "laps" in out and "hash-static" in out


class TestTelemetry:
    def test_telemetry_dump_round_trips(self, tmp_path, capsys):
        from repro.obs import load_run

        out_dir = tmp_path / "out"
        rc = main([
            "compare", "--trace", "auck-1", "--packets", "5000",
            "--cores", "4", "--duration-ms", "2",
            "--schedulers", "fcfs", "laps",
            "--telemetry", str(out_dir), "--telemetry-csv",
        ])
        assert rc == 0
        assert "[telemetry]" in capsys.readouterr().out
        for name in ("fcfs", "laps"):
            run_dir = out_dir / name
            assert (run_dir / "manifest.json").exists()
            assert (run_dir / "series.ndjson").exists()
            assert (run_dir / "series.csv").exists()
            rec = load_run(run_dir)
            assert rec.manifest["scheduler"] == name
            assert rec.manifest["config"]["num_cores"] == 4
            assert rec.manifest["extra"]["trace"] == "auck-1"
            assert rec.report["scheduler"] == name
            assert rec.num_samples > 0
            # series covers the drain phase: the last sample accounts
            # for every departure in the frozen report
            assert rec.series("departed")[-1] == rec.report["departed"]
