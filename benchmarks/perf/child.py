"""One benchmark process: set up one workload, run its rounds, report.

``run.py`` starts this as ``python -m benchmarks.perf.child WORKLOAD
SEED MODE TINY CPU T_SPAWN`` with ``src`` and the repository root on
``PYTHONPATH``, and reads the one JSON line it prints.  ``CPU`` is the
CPU to pin the process to, ``-`` for none.  ``T_SPAWN`` is
the parent's ``time.monotonic()`` just before the process started;
CLOCK_MONOTONIC is shared by every process on Linux, so the
process-start metrics (``wall_s``, ``setup_s``) count interpreter
start-up too.

The process runs one cold round (its end is the "first report") and,
in ``timed`` mode, the workload's warm rounds.  In ``traced`` mode it
installs the full tracer before anything is built and runs the cold
round only; ``cold`` mode runs the cold round untraced (a reference
outcome).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import sys
import time


def _status_kib(pid: int | str, key: str) -> int:
    """A ``/proc/<pid>/status`` field in KiB (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _workers() -> list[dict]:
    """Peak RSS and CPU of this process's live children (the shard
    worker pool, which stays up until interpreter exit)."""
    return [
        {
            "peak_rss_mb": _status_kib(p.pid, "VmHWM") / 1024.0,
            "cpu_s": _cpu_s(p.pid),
        }
        for p in multiprocessing.active_children()
    ]


def _summarize(rnd) -> dict:
    reports = rnd.reports
    violations = sum(
        r.departed + r.dropped > r.generated or r.out_of_order > r.departed
        for r in reports
    )
    return {
        "sim_s": rnd.sim_s,
        "cells": len(reports),
        "generated": sum(r.generated for r in reports),
        "departed": sum(r.departed for r in reports),
        "dropped": sum(r.dropped for r in reports),
        "out_of_order": sum(r.out_of_order for r in reports),
        "p99_us": statistics.median(r.latency_ns.get("p99", 0.0) for r in reports) / 1e3,
        "violations": violations,
        "outcome": rnd.outcome,
    }


def main(argv: list[str]) -> int:
    name, seed, mode, tiny, cpu, t_spawn = (
        argv[0], int(argv[1]), argv[2], argv[3] == "1", argv[4], float(argv[5]),
    )
    if cpu != "-":
        os.sched_setaffinity(0, {int(cpu)})
    trace = mode == "traced"
    import numpy

    from benchmarks.perf import workloads
    from benchmarks.perf.trace import FULL_TARGETS, LIGHT_TARGETS, Tracer

    import_s = time.monotonic() - t_spawn
    workload = workloads.WORKLOADS[name]
    inputs = workloads.inputs(tiny)
    tracer = Tracer(FULL_TARGETS if trace else LIGHT_TARGETS).install()
    state = workload.build(inputs, seed, tracer)
    rounds = []
    for i in range(1 + workload.warm_rounds if mode == "timed" else 1):
        rounds.append(_summarize(workload.run(state, inputs, seed, tracer)))
        if i == 0:
            wall_s = time.monotonic() - t_spawn
            setup_s = import_s + tracer.total_s("setup.build")
            cpu = os.times()
            cpu_util = (cpu.user + cpu.system) / wall_s
    result = {
        "workload": name,
        "seed": seed,
        "traced": trace,
        "inputs": inputs,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_util": cpu_util,
        "own_rss_mb": _status_kib("self", "VmHWM") / 1024.0,
        "workers": _workers(),
        "rounds": rounds,
    }
    if trace:
        result["layers"] = {
            layer: {"calls": st.calls, "total_s": st.total, "self_s": st.self}
            for layer, st in tracer.stats.items()
        }
        result["counts"] = tracer.counts
        result["untraced"] = tracer.untraced
    tracer.uninstall()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
