"""The benchmark's workloads: inputs, set-up and one round each.

Every workload drives only public entry points — ``repro.simulate``,
``repro.StreamingSource``, ``scenario_workload``/``scenario_config`` and
``run_tournament`` — and passes no engine, ``vectorized`` or other speed
knob, so a round always measures the program's default path.  The seed
feeds the workload generator only.  Simulated traffic is open loop at
the stated offered utilisation.

BENCHMARK.json says why each workload exists and README.md which
layers it stresses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

import repro
from repro import units
from repro.experiments import tournament
from repro.experiments.params import SCENARIOS
from repro.experiments.runner import scenario_config, scenario_workload

__all__ = ["Round", "Workload", "WORKLOADS", "inputs"]

#: workload inputs (``expected.json`` pins the outcomes they produce)
_FULL = {
    "cores": 16,
    "stream_utilisation": 0.9,
    "stream_trace_packets": 100_000,
    "stream_ms": 10,
    "laps_scenario": "T5",
    "laps_trace_packets": 100_000,
    "laps_ms": 10,
    "zoo_ms": 2,
    "zoo_trace_packets": None,  # the tournament's quick default
    "shards": 2,
}
#: smoke sizes for the self-tests
_TINY = {
    **_FULL,
    "stream_trace_packets": 5_000,
    "stream_ms": 0.5,
    "laps_trace_packets": 5_000,
    "laps_ms": 0.5,
    "zoo_ms": 0.2,
    "zoo_trace_packets": 2_000,
}


def inputs(tiny: bool = False) -> dict:
    """The workload inputs, or the smoke sizes when *tiny*."""
    return dict(_TINY if tiny else _FULL)


def _outcome(report) -> dict:
    """The simulated outcome of one run, as pinned."""
    return {
        "generated": report.generated,
        "departed": report.departed,
        "dropped": report.dropped,
        "out_of_order": report.out_of_order,
        "flow_migration_events": report.flow_migration_events,
        "p99_ns": report.latency_ns.get("p99", 0.0),
    }


@dataclass
class Round:
    """One measured round."""

    #: host seconds of the simulation phase (round time minus set-up)
    sim_s: float
    #: every report the round produced (one per simulated run)
    reports: list
    #: what ``expected.json`` pins for this round
    outcome: dict


@dataclass(frozen=True)
class Workload:
    name: str
    #: rounds a child runs after its first (cold) one
    warm_rounds: int
    #: ``(inputs, seed, tracer) -> state``, timed as set-up
    build: Callable[[dict, int, Any], Any]
    #: ``(state, inputs, seed, tracer) -> Round``
    run: Callable[[Any, dict, int, Any], Round]


# -- static-stream / static-sharded -------------------------------------
def _build_stream(inp: dict, seed: int, tracer) -> tuple:
    with tracer.span("setup.build"):
        service = repro.Service(0, "ip-forward", units.us(0.5))
        services = repro.ServiceSet([service])
        trace = repro.preset_trace("caida-1", num_packets=inp["stream_trace_packets"])
        rate = inp["stream_utilisation"] * inp["cores"] * service.capacity_pps()
        source = repro.StreamingSource(
            [trace], [repro.HoltWintersParams(a=rate)],
            units.ms(inp["stream_ms"]), seed=seed,
        )
        config = scenario_config(
            num_cores=inp["cores"], services=services, collect_latencies=True,
        )
    return source, config


def _simulate(*args, **kwargs) -> Round:
    t0 = time.perf_counter()
    report = repro.simulate(*args, **kwargs)
    return Round(time.perf_counter() - t0, [report], _outcome(report))


def _run_stream(state, inp: dict, seed: int, tracer) -> Round:
    source, config = state
    return _simulate(source, repro.make_scheduler("hash-static"), config)


def _run_sharded(state, inp: dict, seed: int, tracer) -> Round:
    source, config = state
    return _simulate(
        source, repro.make_scheduler("hash-static"), config,
        shards=inp["shards"], shard_workers=inp["shards"],
    )


# -- laps-edge -------------------------------------------------------------
def _build_laps(inp: dict, seed: int, tracer) -> tuple:
    with tracer.span("setup.build"):
        workload = scenario_workload(
            SCENARIOS[inp["laps_scenario"]],
            num_cores=inp["cores"],
            duration_ns=units.ms(inp["laps_ms"]),
            trace_packets=inp["laps_trace_packets"],
            seed=seed,
        )
        config = scenario_config(num_cores=inp["cores"], collect_latencies=True)
    return workload, config


def _run_laps(state, inp: dict, seed: int, tracer) -> Round:
    workload, config = state
    # rng = seed + 1, as the Fig. 7 harness seeds LAPS
    scheduler = repro.LAPSScheduler(repro.LAPSConfig(num_services=4), rng=seed + 1)
    return _simulate(workload, scheduler, config)


# -- zoo-faults ------------------------------------------------------------
def _build_zoo(inp: dict, seed: int, tracer) -> None:
    """The tournament builds its workloads inside the call
    (``WorkloadSpec.build``, timed by the tracer as set-up)."""
    return None


def _run_zoo(state, inp: dict, seed: int, tracer) -> Round:
    built0 = tracer.total_s("setup.build")
    first_report = len(tracer.reports)
    t0 = time.perf_counter()
    kwargs = {}
    if inp["zoo_trace_packets"] is not None:
        kwargs["trace_packets"] = inp["zoo_trace_packets"]
    payload = tournament.run_tournament(
        schedulers=tuple(repro.available_schedulers()),
        quick=True,
        jobs=1,
        seeds=(seed,),
        duration_ns=units.ms(inp["zoo_ms"]),
        **kwargs,
    )
    elapsed = time.perf_counter() - t0
    built = tracer.total_s("setup.build") - built0
    return Round(
        sim_s=elapsed - built,
        reports=tracer.reports[first_report:],
        outcome={"runs": payload["runs"]},
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("static-stream", 3, _build_stream, _run_stream),
        Workload("laps-edge", 3, _build_laps, _run_laps),
        # a tournament rebuilds its workloads on every call, so a
        # second round would repeat the set-up: one round per process
        Workload("zoo-faults", 0, _build_zoo, _run_zoo),
        Workload("static-sharded", 3, _build_stream, _run_sharded),
    )
}
