"""The probe's time series of a faulted run, pinned byte for byte.

``golden_telemetry/<scheduler>/series.ndjson`` is what

    python -m repro.sim compare --packets 20000 --duration-ms 2 \\
        --schedulers hash-static laps fcfs \\
        --faults tests/obs/golden_telemetry/faults.json --telemetry DIR

writes (``faults.json``: core 1 fails at 500 us and recovers at
1.2 ms).  Every sampled column — queue depths, the cumulative
generated/dropped/departed counters, reorder state, scheduler and
fault counters — comes from the kernel's settled books, so a change in
when or how the kernel settles them shows up as a changed row.  CI
runs the same command and diffs the files.  The manifests are not
pinned: they carry a timestamp.
"""

from __future__ import annotations

from pathlib import Path

from repro.sim.cli import main

GOLDEN = Path(__file__).parent / "golden_telemetry"
SCHEDULERS = ("hash-static", "laps", "fcfs")


def test_faulted_series_match_the_committed_files(tmp_path, capsys):
    rc = main([
        "compare", "--packets", "20000", "--duration-ms", "2",
        "--schedulers", *SCHEDULERS,
        "--faults", str(GOLDEN / "faults.json"),
        "--telemetry", str(tmp_path),
    ])
    assert rc == 0
    for name in SCHEDULERS:
        got = (tmp_path / name / "series.ndjson").read_bytes()
        assert got == (GOLDEN / name / "series.ndjson").read_bytes(), name
