"""Scheduler tournament: the whole zoo raced on one grid.

``python -m repro.experiments.tournament`` drives every registered
scheduler of interest — the paper's baselines (FCFS, static hash, AFS),
LAPS itself, and the literature zoo (RSS/Toeplitz, Flow Director,
Sprinklers, flowlet switching) — across a scenario × fault-schedule ×
utilisation grid, then ranks them on a Borda-style scorecard over four
metrics:

* **reorder density** — out-of-order departures / departures (the
  paper's Fig. 7c metric, and the axis the zoo exists to explore:
  Flow Director's follow-the-load rebinding should sit measurably
  above flowlet switching and Sprinklers here);
* **p99 latency** — tail sojourn time in microseconds;
* **throughput** — departures per second of model time;
* **resilience** — mean drop fraction over the *faulted* cells only
  (how gracefully the scheme degrades when cores die, flap or slow
  down).

Every cell routes through :func:`repro.experiments.batch.run_batch`,
so workloads are built once per (scenario, fault, utilisation, seed)
group and shared by all schedulers — identical arrivals per column of
the grid, which is what makes the ranking meaningful.  The ranked
result is written as ``TOURNAMENT.json`` (schema
``repro.tournament/1``), plus an optional markdown scorecard.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError, ReproError
from repro.experiments.batch import RunSpec, WorkloadSpec, run_batch
from repro.experiments.params import TRACE_GROUPS
from repro.experiments.runner import ExperimentResult
from repro.faults.events import (
    CoreFail,
    CoreSlowdown,
    FaultEvent,
    FaultSchedule,
    TrafficSurge,
    core_flap,
)
from repro.faults.harness import fault_workload
from repro.faults.injector import FaultInjector, apply_traffic_events
from repro.net.service import default_services
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.metrics import SimReport
from repro.sim.workload import Workload

__all__ = [
    "SCORECARD_SCHEMA",
    "DEFAULT_SCHEDULERS",
    "FAULT_NAMES",
    "run_tournament",
    "validate_scorecard",
    "render_markdown",
    "run",
    "main",
]

SCORECARD_SCHEMA = "repro.tournament/1"

NUM_CORES = 16

#: the full field: paper baselines + LAPS + the literature zoo
DEFAULT_SCHEDULERS: tuple[str, ...] = (
    "fcfs", "hash-static", "afs", "laps",
    "rss-static", "flow-director", "sprinklers", "flowlet",
)
DEFAULT_GROUPS: tuple[str, ...] = ("G1", "G3")
DEFAULT_UTILISATIONS: tuple[float, ...] = (0.5, 0.8)
DEFAULT_SEEDS: tuple[int, ...] = (0,)

#: metric -> direction; the scorecard ranks each column independently
#: and sums the ranks (Borda), so no metric dominates by scale
METRICS: tuple[tuple[str, str], ...] = (
    ("reorder_density", "min"),
    ("p99_latency_us", "min"),
    ("throughput_pps", "max"),
    ("resilience_drop_frac", "min"),
)


# ---------------------------------------------------------------------------
# fault schedules (names are WorkloadSpec grouping keys, so strings)

def _fault_events(fault: str, duration_ns: int) -> list[FaultEvent]:
    if fault == "none":
        return []
    if fault == "core-loss":
        return [CoreFail(duration_ns // 3, core_id=5)]
    if fault == "flap":
        return core_flap(
            core_id=9,
            first_fail_ns=duration_ns // 4,
            down_ns=duration_ns // 10,
            up_ns=duration_ns // 10,
            cycles=2,
        )
    if fault == "slowdown-surge":
        return [
            CoreSlowdown(
                duration_ns // 4, core_id=2, factor=4.0,
                duration_ns=duration_ns // 3,
            ),
            TrafficSurge(
                duration_ns // 2, service_id=1, factor=2.0,
                duration_ns=duration_ns // 6,
            ),
        ]
    raise ValueError(f"unknown fault schedule {fault!r}")


FAULT_NAMES: tuple[str, ...] = ("none", "core-loss", "flap", "slowdown-surge")


def _fault_schedule(fault: str, duration_ns: int) -> FaultSchedule:
    return FaultSchedule(_fault_events(fault, duration_ns))


# ---------------------------------------------------------------------------
# picklable grid factories (module-level: groups may run in pool workers)

def _zoo_workload(
    group: str,
    utilisation: float,
    duration_ns: int,
    trace_packets: int,
    seed: int,
    fault: str,
) -> Workload:
    """Steady 4-service workload from one Table V trace group at
    *utilisation* of ideal capacity, with the fault schedule's traffic
    events (surges) already applied — every scheduler in the cell sees
    the identical arrival stream."""
    workload = fault_workload(
        utilisation, duration_ns, trace_packets=trace_packets, seed=seed,
        num_cores=NUM_CORES, trace_names=TRACE_GROUPS[group],
    )
    return apply_traffic_events(workload, _fault_schedule(fault, duration_ns))


def _zoo_scheduler(name: str, num_services: int = 4, seed: int = 1) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=num_services), rng=seed)
    return make_scheduler(name)


def _zoo_config(num_cores: int = NUM_CORES) -> SimConfig:
    return SimConfig(num_cores=num_cores, collect_latencies=True)


def _zoo_injector(fault: str, duration_ns: int) -> FaultInjector:
    return FaultInjector(_fault_schedule(fault, duration_ns))


# ---------------------------------------------------------------------------
# grid -> runs -> scorecard

def _run_row(label: dict, report: SimReport) -> dict[str, Any]:
    return {
        **label,
        "reorder_density": round(report.ooo_fraction, 6),
        "p99_latency_us": round(report.latency_ns.get("p99", 0.0) / 1e3, 3),
        "throughput_pps": round(report.throughput_pps, 1),
        "drop_frac": round(report.drop_fraction, 6),
        "fault_dropped": report.fault_dropped,
        "fairness": round(report.load_fairness, 4),
    }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _scorecard(runs: list[dict]) -> list[dict[str, Any]]:
    """Aggregate runs per scheduler and Borda-rank the aggregates."""
    schedulers = sorted({r["scheduler"] for r in runs})
    means: dict[str, dict[str, float]] = {}
    for name in schedulers:
        mine = [r for r in runs if r["scheduler"] == name]
        faulted = [r for r in mine if r["fault"] != "none"] or mine
        means[name] = {
            "reorder_density": _mean([r["reorder_density"] for r in mine]),
            "p99_latency_us": _mean([r["p99_latency_us"] for r in mine]),
            "throughput_pps": _mean([r["throughput_pps"] for r in mine]),
            "resilience_drop_frac": _mean([r["drop_frac"] for r in faulted]),
            "fairness": _mean([r["fairness"] for r in mine]),
        }
    score = {name: 0 for name in schedulers}
    for metric, direction in METRICS:
        ordered = sorted(
            schedulers,
            key=lambda n: means[n][metric],
            reverse=(direction == "max"),
        )
        for rank, name in enumerate(ordered):
            score[name] += rank
    ranked = sorted(
        schedulers,
        key=lambda n: (score[n], means[n]["reorder_density"], n),
    )
    return [
        {
            "rank": i + 1,
            "scheduler": name,
            "score": score[name],
            "means": {k: round(v, 6) for k, v in means[name].items()},
        }
        for i, name in enumerate(ranked)
    ]


def _check_choices(kind: str, given: tuple[str, ...], valid) -> None:
    for value in given:
        if value not in valid:
            raise ConfigError(
                f"unknown {kind} {value!r}; choose from {', '.join(valid)}"
            )


def run_tournament(
    schedulers: tuple[str, ...] = DEFAULT_SCHEDULERS,
    groups: tuple[str, ...] = DEFAULT_GROUPS,
    faults: tuple[str, ...] = FAULT_NAMES,
    utilisations: tuple[float, ...] = DEFAULT_UTILISATIONS,
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    *,
    quick: bool = False,
    duration_ns: int | None = None,
    trace_packets: int | None = None,
    jobs: int = 1,
    shards: int | None = None,
    shard_workers: int = 0,
) -> dict[str, Any]:
    """Race the field and return the ``repro.tournament/1`` payload.

    ``shards`` runs each *statically partitionable* scheduler's cells
    through :func:`repro.sim.sharding.run_sharded` — bit-identical to
    single-process, so it is a speed knob, never a scenario axis,
    and the scorecard is unchanged.  Schedulers whose
    sharded results would differ (everything non-``shard_static``,
    including LAPS' windowed services mode) stay single-process.

    Unknown scheduler, scenario or fault names raise
    :class:`~repro.errors.ConfigError` before anything is built.
    """
    _check_choices("scheduler", schedulers, available_schedulers())
    _check_choices("scenario", groups, sorted(TRACE_GROUPS))
    _check_choices("fault schedule", faults, FAULT_NAMES)
    if quick:
        if groups == DEFAULT_GROUPS:  # keep explicit --scenarios intact
            groups = groups[:1]
        utilisations = utilisations[:1]
        seeds = seeds[:1]
    if duration_ns is None:
        duration_ns = units.ms(6) if quick else units.ms(20)
    if trace_packets is None:
        trace_packets = 12_000 if quick else 40_000
    num_services = len(default_services())
    shardable: dict[str, bool] = {}
    if shards is not None and shards > 1:
        shardable = {
            name: getattr(
                _zoo_scheduler(name, num_services, 1), "shard_static", False
            )
            for name in schedulers
        }

    specs: list[RunSpec] = []
    for group in groups:
        for fault in faults:
            for util in utilisations:
                for seed in seeds:
                    wspec = WorkloadSpec.of(
                        _zoo_workload,
                        group=group, utilisation=util,
                        duration_ns=duration_ns,
                        trace_packets=trace_packets,
                        seed=seed, fault=fault,
                    )
                    for name in schedulers:
                        specs.append(RunSpec(
                            workload=wspec,
                            scheduler_fn=_zoo_scheduler,
                            scheduler_kwargs=dict(
                                name=name, num_services=num_services,
                                seed=seed + 1,
                            ),
                            config_fn=_zoo_config,
                            injector_fn=(
                                None if fault == "none" else _zoo_injector
                            ),
                            injector_kwargs=(
                                {} if fault == "none"
                                else dict(fault=fault, duration_ns=duration_ns)
                            ),
                            shards=shards if shardable.get(name) else None,
                            shard_workers=shard_workers,
                            label=dict(
                                scheduler=name, group=group, fault=fault,
                                utilisation=util, seed=seed,
                            ),
                        ))

    runs = [
        _run_row(done.label, done.report)
        for done in run_batch(specs, jobs=jobs)
    ]
    return {
        "schema": SCORECARD_SCHEMA,
        "generated_by": "python -m repro.experiments.tournament",
        "grid": {
            "schedulers": list(schedulers),
            "groups": list(groups),
            "faults": list(faults),
            "utilisations": list(utilisations),
            "seeds": list(seeds),
            "duration_ns": duration_ns,
            "trace_packets": trace_packets,
            "num_cores": NUM_CORES,
            "quick": quick,
            "shards": shards,
        },
        "runs": runs,
        "scorecard": _scorecard(runs),
    }


# ---------------------------------------------------------------------------
# validation + rendering

_RUN_FIELDS = (
    "scheduler", "group", "fault", "utilisation", "seed",
    "reorder_density", "p99_latency_us", "throughput_pps",
    "drop_frac", "fault_dropped", "fairness",
)
_MEAN_FIELDS = tuple(m for m, _ in METRICS) + ("fairness",)


def validate_scorecard(payload: dict) -> None:
    """Raise :class:`ValueError` unless *payload* is a structurally
    sound ``repro.tournament/1`` document (CI runs this on the smoke
    artifact, tests run it on fresh results and on the committed
    ``TOURNAMENT.json``)."""
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    if payload.get("schema") != SCORECARD_SCHEMA:
        raise ValueError(
            f"schema must be {SCORECARD_SCHEMA!r}, got {payload.get('schema')!r}"
        )
    for key in ("generated_by", "grid", "runs", "scorecard"):
        if key not in payload:
            raise ValueError(f"missing top-level key {key!r}")
    runs = payload["runs"]
    if not isinstance(runs, list) or not runs:
        raise ValueError("runs must be a non-empty list")
    for i, row in enumerate(runs):
        for fld in _RUN_FIELDS:
            if fld not in row:
                raise ValueError(f"runs[{i}] missing field {fld!r}")
        for fld in ("reorder_density", "drop_frac"):
            if not 0.0 <= row[fld] <= 1.0:
                raise ValueError(
                    f"runs[{i}].{fld} out of [0, 1]: {row[fld]!r}"
                )
    card = payload["scorecard"]
    if not isinstance(card, list) or not card:
        raise ValueError("scorecard must be a non-empty list")
    for i, entry in enumerate(card):
        for fld in ("rank", "scheduler", "score", "means"):
            if fld not in entry:
                raise ValueError(f"scorecard[{i}] missing field {fld!r}")
        if entry["rank"] != i + 1:
            raise ValueError(
                f"scorecard[{i}].rank must be {i + 1}, got {entry['rank']!r}"
            )
        for fld in _MEAN_FIELDS:
            if fld not in entry["means"]:
                raise ValueError(f"scorecard[{i}].means missing {fld!r}")
    card_names = {e["scheduler"] for e in card}
    run_names = {r["scheduler"] for r in runs}
    if card_names != run_names:
        raise ValueError(
            f"scorecard schedulers {sorted(card_names)} != "
            f"run schedulers {sorted(run_names)}"
        )


def render_markdown(payload: dict) -> str:
    """The scorecard as a GitHub-flavored markdown table."""
    grid = payload["grid"]
    lines = [
        "# Scheduler tournament",
        "",
        f"{len(payload['runs'])} runs: "
        f"{len(grid['schedulers'])} schedulers x "
        f"groups {', '.join(grid['groups'])} x "
        f"faults {', '.join(grid['faults'])} x "
        f"utilisations {', '.join(str(u) for u in grid['utilisations'])} x "
        f"{len(grid['seeds'])} seed(s).",
        "",
        "| rank | scheduler | score | reorder density | p99 (us) "
        "| pkts/s | faulted drop frac | fairness |",
        "|---:|---|---:|---:|---:|---:|---:|---:|",
    ]
    for entry in payload["scorecard"]:
        m = entry["means"]
        lines.append(
            f"| {entry['rank']} | {entry['scheduler']} | {entry['score']} "
            f"| {m['reorder_density']:.4f} | {m['p99_latency_us']:.1f} "
            f"| {m['throughput_pps']:,.0f} | {m['resilience_drop_frac']:.4f} "
            f"| {m['fairness']:.3f} |"
        )
    lines.append("")
    lines.append(
        "Lower is better for reorder density, p99 and drop fraction; "
        "higher for pkts/s.  Score is the Borda sum of per-metric ranks "
        "(lower wins)."
    )
    return "\n".join(lines) + "\n"


def run(quick: bool = False, jobs: int = 1, **_) -> list[ExperimentResult]:
    """The ``repro-experiments tournament`` adapter: run the grid and
    wrap the per-run rows as an :class:`ExperimentResult` table (the
    scorecard rides in ``meta``)."""
    payload = run_tournament(quick=quick, jobs=jobs)
    result = ExperimentResult(
        "Scheduler tournament - zoo ranking across faults and load",
        columns=list(_RUN_FIELDS),
        meta={
            "quick": quick,
            "schema": payload["schema"],
            "scorecard": payload["scorecard"],
        },
    )
    for row in payload["runs"]:
        result.add(**row)
    return [result]


def _csv(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.tournament",
        description="Race the scheduler zoo and emit a ranked scorecard.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small grid + short runs (seconds; used by CI smoke)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes (0 = auto)",
    )
    parser.add_argument(
        "--schedulers", type=_csv, default=DEFAULT_SCHEDULERS, metavar="A,B",
        help=f"comma-separated field (default: {','.join(DEFAULT_SCHEDULERS)})",
    )
    parser.add_argument(
        "--scenarios", type=_csv, default=DEFAULT_GROUPS, metavar="G1,G3",
        help="trace groups (Table V)",
    )
    parser.add_argument(
        "--faults", type=_csv, default=FAULT_NAMES, metavar="A,B",
        help=f"fault schedules (default: {','.join(FAULT_NAMES)})",
    )
    parser.add_argument(
        "--utilisations", metavar="0.5,0.8",
        type=lambda s: tuple(float(x) for x in _csv(s)),
        default=DEFAULT_UTILISATIONS,
    )
    parser.add_argument(
        "--seeds", metavar="0,1",
        type=lambda s: tuple(int(x) for x in _csv(s)),
        default=DEFAULT_SEEDS,
    )
    parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run statically partitionable schedulers sharded N ways "
             "(bit-identical scorecards; see docs/architecture.md)",
    )
    parser.add_argument(
        "--shard-workers", type=int, default=0, metavar="N",
        help="processes per sharded run, the calling one included "
             "(0 = auto)",
    )
    parser.add_argument(
        "--json", metavar="FILE", default="TOURNAMENT.json",
        help="scorecard output path (default: TOURNAMENT.json)",
    )
    parser.add_argument(
        "--markdown", metavar="FILE", default=None,
        help="also render the scorecard as markdown",
    )
    args = parser.parse_args(argv)

    try:
        payload = run_tournament(
            schedulers=args.schedulers,
            groups=args.scenarios,
            faults=args.faults,
            utilisations=args.utilisations,
            seeds=args.seeds,
            quick=args.quick,
            jobs=args.jobs,
            shards=args.shards,
            shard_workers=args.shard_workers,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    validate_scorecard(payload)
    out = Path(args.json)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(render_markdown(payload))
    print(f"[scorecard written to {out}]")
    if args.markdown:
        Path(args.markdown).write_text(render_markdown(payload))
        print(f"[markdown written to {args.markdown}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
