"""Self-tests of the benchmark.

Run from the repository root (tier-1 collects only ``tests/``)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.perf import run
from benchmarks.perf.trace import FULL_TARGETS, Family, Target, Tracer

SPEC = run.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(run.PERF / "run.py"), "--tiny", "--seconds", "0", *args],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.fixture(scope="module")
def traced_smoke() -> dict[str, list[str]]:
    """Standard output of a traced smoke-size run of every workload."""
    return {name: _bench("--workload", name, "--trace", "1") for name in WORKLOADS}


def _printed(lines: list[str]) -> set[tuple[str, str]]:
    """(metric, unit) pairs of the human-readable metric lines."""
    return {
        (parts[1], parts[-1])
        for parts in (line.split() for line in lines[:-1])
        if len(parts) == 4
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_unit(traced_smoke, workload):
    lines = traced_smoke[workload]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    expected = {(m["name"], m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert expected <= _printed(lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_cover_wall_time(traced_smoke, workload):
    metrics = json.loads(traced_smoke[workload][-1])["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9


def test_untraced_result_holds_the_end_to_end_metrics():
    result = json.loads(_bench("--workload", "static-stream", "--trace", "0")[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_pin_counts_as_failed():
    pins = run.load_pins()
    pin = pins["static-stream"]["0"]
    child = {"rounds": [{"cells": 1, "violations": 0, "outcome": dict(pin)}] * 3}
    assert run.check([child], pin) == (3, 0)
    assert run.check([child], dict(pin, dropped=pin["dropped"] + 1)) == (3, 3)

    zoo = pins["zoo-faults"]["0"]
    cells = len(zoo["runs"])
    child = {"rounds": [{"cells": cells, "violations": 0, "outcome": zoo}]}
    assert run.check([child], zoo) == (cells, 0)
    corrupt = {"runs": [dict(zoo["runs"][0], drop_frac=1.0)] + zoo["runs"][1:]}
    assert run.check([child], corrupt) == (cells, 1)
    assert run.check([{"error": "exit 1"}], zoo) == (1, 1)


def test_missing_wrapper_target_is_listed_untraced():
    tracer = Tracer((
        Target("a", "repro.sim.kernel", "SimKernel", "no_such_method"),
        Target("b", "repro.sim.no_such_module", None, "run"),
        Target("c", "repro.sim.kernel", "NoSuchKernel", "run"),
        Family("d", "repro.schedulers.base", "Scheduler", ("no_such_hook",)),
    ))
    with tracer:
        assert tracer.untraced == [
            "repro.sim.kernel:SimKernel.no_such_method",
            "repro.sim.no_such_module:run",
            "repro.sim.kernel:NoSuchKernel.run",
            "repro.schedulers.base:Scheduler.no_such_hook",
        ]


def test_full_tracer_keeps_identities_and_uninstalls():
    from repro.schedulers.base import Scheduler, make_scheduler
    from repro.sim.kernel import SimKernel

    plain_run = SimKernel.run
    with Tracer(FULL_TARGETS) as tracer:
        assert SimKernel.run is not plain_run
        fcfs = make_scheduler("fcfs")
        assert type(fcfs).assign_batch is Scheduler.assign_batch
        assert type(fcfs).batch_commit is None
        assert "sched.select_core" in tracer.stats
    assert SimKernel.run is plain_run
