"""Tests for the experiments CLI."""

import json

import pytest

from repro.experiments.cli import main


class TestCLI:
    def test_timing_runs(self, capsys):
        assert main(["timing"]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out

    def test_fig2_quick(self, capsys):
        assert main(["fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "flow size vs rank" in out

    def test_json_output(self, tmp_path, capsys):
        assert main(["timing", "--json", str(tmp_path)]) == 0
        files = list(tmp_path.glob("*.json"))
        assert files
        payload = json.loads(files[0].read_text())
        assert "rows" in payload

    @pytest.mark.parametrize("argv, repro_jobs, message", [
        (["fig7", "--quick", "--stream", "--chunk-size", "-5"], None,
         "error: chunk size must be positive, got -5"),
        (["fig7", "--quick", "--jobs", "-1"], None,
         "error: jobs must be >= 0, got -1"),
        (["fig7", "--quick", "--jobs", "0"], "abc",
         "error: REPRO_JOBS must be an integer, got 'abc'"),
    ], ids=["negative-chunk-size", "negative-jobs", "bad-repro-jobs"])
    def test_repro_error_exits_2_without_traceback(
        self, argv, repro_jobs, message, capsys, monkeypatch
    ):
        if repro_jobs is not None:
            monkeypatch.setenv("REPRO_JOBS", repro_jobs)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err.splitlines()
        assert "Traceback" not in err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-an-experiment"])

    def test_telemetry_output(self, tmp_path, capsys):
        from repro.obs import RunManifest, read_ndjson

        assert main(["timing", "--telemetry", str(tmp_path)]) == 0
        run_dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert run_dirs
        run = run_dirs[0]
        manifest = RunManifest.load(run / "manifest.json")
        assert manifest.package_version
        rows = read_ndjson(run / "rows.ndjson")
        payload = json.loads((run / "result.json").read_text())
        assert rows == payload["rows"]
