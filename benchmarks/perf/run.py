"""The benchmark: end-to-end and per-layer metrics of the simulator.

Run from the repository root::

    python3 benchmarks/perf/run.py --workload static-stream --seed 0 \\
        --seconds 15 --trace 0
    PYTHONPATH=src python -m benchmarks.perf            # every workload
    PYTHONPATH=src python -m benchmarks.perf --trace --json out.json

Each workload runs as a fixed number of lane groups (``--seconds / 5``,
at least three), one group at a time.  A group is one fresh child
process (``child.py``) per lane, started together, each pinned to its
own CPU; ``static-sharded`` needs both CPUs and runs one unpinned
child.  A child is one invocation as a user would make it: imports,
workload build, one cold round — whose end is the "first report" —
and, for the single-simulation workloads, warm rounds that measure
steady-state throughput.  ``--trace`` adds one more group that runs a
cold round under the layer tracer (``trace.py``).  README.md gives the
reasons for the lanes and for reporting the run's best timings.

Every round's simulated outcome is checked: conservation invariants
always, the pins in ``expected.json`` for the pinned seeds, agreement
between all rounds otherwise, and ``static-sharded`` against
``static-stream``.  Metric names, units and directions come from
``BENCHMARK.json`` at the repository root.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace`` the per-layer
ones).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent.parent

#: lane groups per run: one per this many ``--seconds``, at least three
GROUP_SECONDS = 5
MIN_GROUPS = 3
#: stop starting groups after this long, and kill any child still
#: running at the limit, so a run ends within 180 s even on a machine
#: several times slower than the one the sizes were chosen on
MAX_RUN_S = 90
RUN_LIMIT_S = 170
#: a child that takes longer than this is killed and counts as failed
CHILD_TIMEOUT_S = 60
#: a single-process child whose CPU time is below this share of its
#: wall time did not have a CPU to itself
CONTENDED_CPU_UTIL = 0.9
#: workloads whose pins are another workload's (same inputs, same outcome)
PIN_ALIAS = {"static-sharded": "static-stream"}
SHARDED = {"static-sharded"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins() -> dict:
    return json.loads((PERF / "expected.json").read_text())


def child_env() -> dict:
    """The parent's environment minus every ``REPRO_*`` switch (engine,
    job count, bench sizes, pool-worker marker), with single-threaded
    BLAS and the package plus this directory importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join((str(ROOT / "src"), str(ROOT)))
    return env


def _report(proc: subprocess.Popen, t_spawn: float, deadline: float) -> dict:
    """Wait for one child until *deadline*; its parsed report, or an error."""
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"killed after {time.monotonic() - t_spawn:.0f} s",
                "elapsed": time.monotonic() - t_spawn}
    elapsed = time.monotonic() - t_spawn
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(err.strip().splitlines()[-5:])
        return {"error": f"exit {proc.returncode}: {tail}", "elapsed": elapsed}
    report = json.loads(lines[-1])
    report["elapsed"] = elapsed
    return report


def launch(workload: str, seed: int, mode: str, tiny: bool,
           lanes: tuple[int | None, ...] = (None,),
           limit: float = float("inf")) -> list[dict]:
    """Run one child per lane, all started together (*mode* ``timed``,
    ``traced`` or ``cold``, see ``child.py``; a lane is the CPU the
    child is pinned to, None for unpinned); their parsed reports, or
    errors.  Children still running at ``time.monotonic()`` *limit* are
    killed.  A child prints one line, far below a pipe's buffer, so the
    children are waited for one after another."""
    t_spawn = time.monotonic()
    deadline = min(t_spawn + CHILD_TIMEOUT_S, limit)
    procs = []
    try:
        for cpu in lanes:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "benchmarks.perf.child", workload, str(seed),
                 mode, "1" if tiny else "0", "-" if cpu is None else str(cpu),
                 repr(t_spawn)],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            ))
        return [_report(p, t_spawn, deadline) for p in procs]
    finally:
        for proc in procs:  # only still running when interrupted
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def lanes_for(workload: str) -> tuple[int | None, ...]:
    """Two lanes, one pinned to each of two CPUs, when the machine has
    them and the workload is single-process; one unpinned lane else."""
    cpus = sorted(os.sched_getaffinity(0))
    if workload in SHARDED or len(cpus) < 2:
        return (None,)
    return (cpus[0], cpus[1])


# -- outcome checks ------------------------------------------------------
def _mismatches(outcome: dict, reference: dict, cells: int) -> int:
    """Cells of *outcome* that differ from *reference*."""
    if "runs" not in reference:
        return 0 if outcome == reference else cells
    runs, ref = outcome.get("runs", []), reference["runs"]
    if len(runs) != len(ref):
        return cells
    return sum(a != b for a, b in zip(runs, ref))


def check(children: list[dict], reference: dict | None) -> tuple[int, int]:
    """``(attempted, failed)`` over every round of *children*.

    A round is attempted once per simulated run it holds (the
    tournament's cells); a run fails when it breaks conservation or its
    outcome differs from *reference* (the pin, or else the first round
    seen).  A child that crashed is one attempted, failed round.
    """
    attempted = failed = 0
    for child in children:
        if "error" in child:
            attempted += 1
            failed += 1
            continue
        for rnd in child["rounds"]:
            if reference is None:
                reference = rnd["outcome"]
            cells = max(rnd["cells"], 1)
            bad = rnd["violations"] + _mismatches(rnd["outcome"], reference, cells)
            attempted += cells
            failed += min(bad, cells)
    return attempted, failed


# -- metrics ---------------------------------------------------------------
def _timed_rounds(child: dict) -> list[dict]:
    """Warm rounds when the child ran any, else its only round."""
    rounds = child["rounds"]
    return rounds[1:] if len(rounds) > 1 else rounds


def _pkts_per_s(rnd: dict) -> float:
    return rnd["generated"] / rnd["sim_s"]


def peak_rss_mb(child: dict) -> float:
    """The child's peak RSS plus each shard worker's (an upper bound:
    the peaks need not coincide)."""
    return child["own_rss_mb"] + sum(w["peak_rss_mb"] for w in child["workers"])


def end_to_end(groups: list[list[dict]]) -> dict[str, float]:
    """The run's end-to-end metrics from its untraced lane groups.

    Contention from other tenants only ever slows this code down, so
    the two timings are the run's best sample: the fastest process's
    wall time and the fastest timed round's throughput.  Set-up time is
    the median over groups of each group's fastest lane, and memory the
    median over every process.
    """
    children = [c for g in groups for c in g]
    return {
        "wall_s": min(c["wall_s"] for c in children),
        "setup_s": statistics.median(min(c["setup_s"] for c in g) for g in groups),
        "pkts_per_s": max(_pkts_per_s(r) for c in children for r in _timed_rounds(c)),
        "peak_rss_mb": statistics.median(peak_rss_mb(c) for c in children),
    }


def per_layer(traced: dict, groups: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of the traced child; the run-validity ones
    compare it with the untraced lane *groups*."""
    layers, counts = traced["layers"], traced["counts"]
    rnd = traced["rounds"][0]
    packets = max(rnd["generated"], 1)

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return layers.get(layer, {}).get("calls", 0)

    attributed = traced["import_s"] + sum(v["self_s"] for v in layers.values())
    sharding_s = layers.get("sharding.run", {}).get("total_s", 0.0)
    worker_cpu = sum(w["cpu_s"] for w in traced["workers"])
    cold = min(c["rounds"][0]["sim_s"] for g in groups for c in g)
    return {
        "setup.import_s": traced["import_s"],
        "setup.build_s": self_s("setup.build"),
        "source.next_chunk_s": self_s("source.next_chunk"),
        "source.chunks": calls("source.next_chunk"),
        "kernel.self_s": self_s("kernel.run"),
        "kernel.init_s": self_s("kernel.init"),
        "kernel.events_popped": counts.get("kernel.events_popped", 0),
        "events.span_self_s": self_s("events.span"),
        "events.phase1_s": self_s("events.phase1"),
        "events.spans_committed": counts.get("events.spans_committed", 0),
        "events.spans_bailed": counts.get("events.spans_bailed", 0),
        "events.span_share": counts.get("events.packets_spanned", 0) / packets,
        "sched.select_core_s": self_s("sched.select_core"),
        "sched.select_core_calls": calls("sched.select_core"),
        "sched.select_share": calls("sched.select_core") / packets,
        "sched.assign_batch_s": self_s("sched.assign_batch"),
        "sched.assign_batch_calls": calls("sched.assign_batch"),
        "sched.plan_rows": counts.get("sched.plan_rows", 0),
        "sched.plan_waste": counts.get("sched.plan_rows", 0) / packets,
        "sched.batch_commit_s": self_s("sched.batch_commit"),
        "sched.batch_commit_span_s": self_s("sched.batch_commit_span"),
        "reorder.on_depart_s": self_s("reorder.on_depart"),
        "reorder.on_drop_s": self_s("reorder.on_drop"),
        "reorder.calls": calls("reorder.on_depart") + calls("reorder.on_drop"),
        "metrics.finalize_s": self_s("metrics.finalize"),
        "faults.apply_s": self_s("faults.apply"),
        "faults.events": calls("faults.apply"),
        "experiments.self_s": self_s("experiments.tournament"),
        "sharding.run_s": sharding_s,
        "sharding.worker_cpu_s": worker_cpu,
        "sharding.parallelism": worker_cpu / sharding_s if sharding_s else 0.0,
        "sharding.worker_peak_rss_mb": max(
            (w["peak_rss_mb"] for w in traced["workers"]), default=0.0
        ),
        "sim.ooo_frac": rnd["out_of_order"] / max(rnd["departed"], 1),
        "sim.drop_frac": rnd["dropped"] / packets,
        "sim.p99_latency_us": rnd["p99_us"],
        "proc.cpu_util": statistics.median(c["cpu_util"] for g in groups for c in g),
        "trace.overhead_frac": rnd["sim_s"] / cold - 1.0,
        "trace.coverage": attributed / traced["wall_s"],
        "trace.unattributed_s": traced["wall_s"] - attributed,
    }


# -- one workload ------------------------------------------------------------
def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """Every child of one workload, checked and reduced to metrics."""
    pins = {} if tiny else load_pins()
    pin = pins.get(PIN_ALIAS.get(name, name), {}).get(str(seed))
    lanes = lanes_for(name)
    record: dict = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "nproc": os.cpu_count(), "lanes": lanes,
        "loadavg_before": os.getloadavg(), "pinned": pin is not None, "notes": [],
    }
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    reference = pin
    if reference is None and name in PIN_ALIAS:
        # no pin for this seed: the single-process run is the reference
        ref = record["reference"] = launch(
            PIN_ALIAS[name], seed, "cold", tiny, limit=limit
        )[0]
        if "error" in ref:
            record["notes"].append(f"reference child failed: {ref['error']}")
            reference = {"error": ref["error"]}
        else:
            reference = ref["rounds"][0]["outcome"]
    groups: list[list[dict]] = []
    for _ in range(max(MIN_GROUPS, int(seconds // GROUP_SECONDS))):
        groups.append(launch(name, seed, "timed", tiny, lanes, limit))
        if any("error" in c for c in groups[-1]) or time.monotonic() - started > MAX_RUN_S:
            break
    traced_group = launch(name, seed, "traced", tiny, lanes, limit) if trace else []

    children = [c for g in groups for c in g] + traced_group
    if pin is not None and any(c.get("inputs", pins["inputs"]) != pins["inputs"] for c in children):
        record["notes"].append(
            "expected.json was pinned for other inputs: regenerate it with "
            "benchmarks/perf/pin.py"
        )
        reference = {"stale": True}
    record["attempted"], record["failed"] = check(children, reference)
    for c in children:
        if "error" in c:
            record["notes"].append(f"child failed: {c['error']}")
        elif name not in SHARDED and c["cpu_util"] < CONTENDED_CPU_UTIL:
            c["contended"] = True
    record["contended_children"] = sum(c.get("contended", False) for c in children)
    record["groups"] = groups
    record["traced"] = traced_group
    record["loadavg_after"] = os.getloadavg()
    ok = [g for g in groups if not any("error" in c for c in g)]
    if ok:
        record["python"] = ok[0][0]["python"]
        record["numpy"] = ok[0][0]["numpy"]
        record["metrics"] = end_to_end(ok)
        traced = [c for c in traced_group if "error" not in c]
        if traced:
            best = min(traced, key=lambda c: c["wall_s"])
            record["per_layer"] = per_layer(best, ok)
            record["untraced"] = best["untraced"]
    return record


# -- reporting -------------------------------------------------------------
def _print_metrics(name: str, values: dict, specs: list[dict]) -> None:
    for spec in specs:
        if spec["name"] in values:
            print(f"{name:15s} {spec['name']:28s} {values[spec['name']]:>16.6g} {spec['unit']}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python3 benchmarks/perf/run.py",
        description="Measure the simulator end to end and by layer.",
    )
    parser.add_argument("--workload", nargs="+", choices=names, default=names,
                        metavar="NAME", help=f"workloads to run (default: all of {names})")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generator seed (default 0)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="run length per workload: one lane group per 5 s, at least three")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a traced lane group; report per-layer metrics")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="also write the full record (every child) here")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes: pins are not checked, rounds must agree")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = {"nproc": os.cpu_count(), "git_commit": _git_commit()}
    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        for name in args.workload
    ]
    if args.json is not None:
        args.json.write_text(json.dumps({**env, "records": records}, indent=1) + "\n")
    kind = "per_layer" if args.trace else "end_to_end"
    result_metrics: dict = {}
    print(f"commit={env['git_commit']} nproc={env['nproc']}")
    for rec in records:
        print(f"== {rec['workload']} seed={rec['seed']} groups={len(rec['groups'])} "
              f"lanes={len(rec['lanes'])} "
              f"attempted={rec['attempted']} failed={rec['failed']} "
              f"contended={rec['contended_children']} nproc={rec['nproc']} "
              f"loadavg={rec['loadavg_before'][0]:.2f}->{rec['loadavg_after'][0]:.2f}")
        for note in rec["notes"]:
            print(f"   note: {note}")
        if rec.get("untraced"):
            print(f"   untraced: {', '.join(rec['untraced'])}")
        _print_metrics(rec["workload"], rec.get("metrics", {}), spec["end_to_end"])
        _print_metrics(rec["workload"], rec.get("per_layer", {}), spec["per_layer"])
        values = rec.get("per_layer" if args.trace else "metrics")
        if values is None:
            print(f"error: {rec['workload']}: no successful run", file=sys.stderr)
            return 1
        prefix = "" if len(records) == 1 else rec["workload"] + "."
        for m in spec[kind]:
            result_metrics[prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0


if __name__ == "__main__":
    # this directory's trace.py must never shadow the standard library's
    sys.path[0] = str(ROOT)
    # a stop request unwinds through launch(), which kills the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    raise SystemExit(main())
