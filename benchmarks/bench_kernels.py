"""Micro-benchmarks of the hot paths (classic pytest-benchmark).

These quantify the claims the simulator's design leans on: vectorised
CRC16 hashing, O(1) AFD accesses, cheap scheduling decisions, and the
event loop's packet rate.

``REPRO_BENCH_QUICK=1`` shrinks the event-loop workload (CI's
benchmark smoke job uses it: the goal there is "the hot paths still
run and haven't collapsed", not stable timings); ``REPRO_BENCH_MIN_PPS``
optionally enforces a simulated-packets-per-second floor on the event
loop (default 20000 — far below the usual ~200k so normal machine
noise can't trip it, but an order-of-magnitude regression does).
"""

import os
import time

import numpy as np
import pytest

from repro import units
from repro.core.afd import AFDConfig, AggressiveFlowDetector
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.hashing.crc import CRC16_CCITT
from repro.hashing.five_tuple import pack_five_tuples_batch
from repro.net.service import Service, ServiceSet
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace


@pytest.fixture(scope="module")
def packed_keys(rng=np.random.default_rng(0)):
    return rng.integers(0, 256, size=(100_000, 13), dtype=np.uint8)


def test_crc16_batch_hash(benchmark, packed_keys):
    """Vectorised CRC16 of 100k 5-tuples (the trace-ingest path)."""
    out = benchmark(CRC16_CCITT.checksum_batch, packed_keys)
    assert out.shape == (100_000,)


def test_crc16_scalar_hash(benchmark):
    data = b"\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d"
    assert benchmark(CRC16_CCITT.checksum, data) == CRC16_CCITT.checksum(data)


def test_five_tuple_batch_packing(benchmark):
    rng = np.random.default_rng(1)
    n = 100_000
    args = (
        rng.integers(0, 2**32, n, dtype=np.uint64),
        rng.integers(0, 2**32, n, dtype=np.uint64),
        rng.integers(0, 2**16, n, dtype=np.uint64),
        rng.integers(0, 2**16, n, dtype=np.uint64),
        rng.integers(0, 2**8, n, dtype=np.uint64),
    )
    out = benchmark(pack_five_tuples_batch, *args)
    assert out.shape == (n, 13)


def test_afd_observe(benchmark):
    """Per-packet AFD work (AFC probe + annex update)."""
    afd = AggressiveFlowDetector(AFDConfig())
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 20_000, size=10_000).tolist()
    for k in keys:
        afd.observe(k)
    stream = iter(keys * 1000)

    def op():
        afd.observe(next(stream))

    benchmark(op)


def test_laps_decision(benchmark):
    """One LAPS scheduling decision on a balanced 16-core system."""

    class Loads:
        num_cores = 16
        queue_capacity = 32
        occ = [3] * 16

    sched = LAPSScheduler(LAPSConfig(num_services=4), rng=0)
    sched.bind(Loads())
    rng = np.random.default_rng(4)
    flows = rng.integers(0, 10_000, size=10_000).tolist()
    stream = iter(flows * 1000)

    def op():
        f = next(stream)
        sched.select_core(f, f & 3, f * 2654435761 % 65536, 0)

    benchmark(op)


def _quick() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def _event_loop_inputs():
    svc = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
    packets = 4_000 if _quick() else 20_000
    duration = units.ms(1) if _quick() else units.ms(3)
    trace = preset_trace("caida-1", num_packets=packets)
    wl = build_workload(
        [trace], [HoltWintersParams(a=8e6)], duration_ns=duration, seed=0
    )
    cfg = SimConfig(num_cores=8, services=svc, collect_latencies=False)
    return wl, cfg


@pytest.mark.parametrize("name", ["hash-static", "fcfs"])
def test_simulator_event_loop(benchmark, name):
    """End-to-end simulated packets per second of wall time.

    Telemetry disabled (``probe=None``) — this is the number the < 5%
    overhead budget of the observability layer is judged against.
    ``hash-static`` runs the span drain; ``fcfs`` has no plan, so it
    guards the scalar decision path (one join-shortest-queue read of
    the load list per packet) against the same floor.
    """
    wl, cfg = _event_loop_inputs()

    def run():
        t0 = time.perf_counter()
        report = simulate(wl, make_scheduler(name), cfg)
        return report, time.perf_counter() - t0

    report, elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.generated == wl.num_packets
    floor = float(os.environ.get("REPRO_BENCH_MIN_PPS", "20000"))
    pps = report.generated / elapsed
    assert pps >= floor, (
        f"event loop at {pps:,.0f} simulated pkts/s, below the "
        f"REPRO_BENCH_MIN_PPS floor of {floor:,.0f}"
    )


def test_kernel_chunked_run_until(benchmark):
    """The steppable path: many ``run_until`` slices vs one ``run()``.

    Measures the overhead of re-entering the kernel (the checkpointing
    and live-inspection use cases run this way) and proves the chunked
    run reproduces the monolithic report exactly.
    """
    from repro.sim.kernel import SimKernel

    wl, cfg = _event_loop_inputs()
    whole = simulate(wl, make_scheduler("hash-static"), cfg)
    last_t = int(wl.arrival_ns[-1])
    chunk = max(1, last_t // 64)

    def run():
        kernel = SimKernel(cfg, make_scheduler("hash-static"), wl)
        t = chunk
        while t < last_t:
            kernel.run_until(t)
            t += chunk
        return kernel.run()

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report == whole


def test_simulator_event_loop_scalar(benchmark):
    """The per-packet ``select_core`` baseline of the same run.

    The vectorized fast path (``vectorized=True``, the default) is
    judged against this; the two reports are bit-identical by contract,
    so the only difference a run may show is wall time.
    """
    wl, cfg = _event_loop_inputs()

    def run():
        return simulate(wl, make_scheduler("hash-static"), cfg, vectorized=False)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report == simulate(wl, make_scheduler("hash-static"), cfg)


def test_simulator_event_loop_streamed_vectorized(benchmark):
    """The production path — streamed source, vectorized scheduling —
    held to the same ``REPRO_BENCH_MIN_PPS`` floor as the materialized
    loop, so a regression in the chunk pipeline or the epoch-cached
    column planner fails CI just like one in the core loop."""
    from repro.sim.source import StreamingSource
    from repro.trace.synthetic import preset_trace as _preset

    packets = 4_000 if _quick() else 20_000
    duration = units.ms(1) if _quick() else units.ms(3)
    trace = _preset("caida-1", num_packets=packets)
    source = StreamingSource(
        [trace], [HoltWintersParams(a=8e6)], duration, seed=0
    )
    svc = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
    cfg = SimConfig(num_cores=8, services=svc, collect_latencies=False)

    def run():
        t0 = time.perf_counter()
        report = simulate(source, make_scheduler("hash-static"), cfg)
        return report, time.perf_counter() - t0

    report, elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.generated > 0
    floor = float(os.environ.get("REPRO_BENCH_MIN_PPS", "20000"))
    pps = report.generated / elapsed
    assert pps >= floor, (
        f"streamed vectorized loop at {pps:,.0f} simulated pkts/s, "
        f"below the REPRO_BENCH_MIN_PPS floor of {floor:,.0f}"
    )


def test_epoch_churn_stress(benchmark):
    """Worst case for the epoch-cached column: a scheduler that churns
    its tables constantly.  Adaptive-hash rebalancing every 50 us (20x
    the default rate) bumps ``map_epoch`` over and over, so the kernel
    replans the window suffix hundreds of times per run; the stressed
    run must stay bit-identical to the scalar path and never collapse
    (it falls under the smoke floor's order of magnitude)."""
    from repro.schedulers.adaptive_hash import AdaptiveHashScheduler

    wl, cfg = _event_loop_inputs()

    def mk():
        return AdaptiveHashScheduler(rebalance_every_ns=units.us(50))

    def run():
        t0 = time.perf_counter()
        report = simulate(wl, mk(), cfg, vectorized=True)
        return report, time.perf_counter() - t0

    report, elapsed = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report == simulate(wl, mk(), cfg, vectorized=False)
    floor = float(os.environ.get("REPRO_BENCH_MIN_PPS", "20000"))
    pps = report.generated / elapsed
    assert pps >= floor / 2, (
        f"epoch-churn stress at {pps:,.0f} simulated pkts/s — replan "
        f"thrash has made the vectorized path pathological"
    )


#: registered schedulers with a vectorized plan (a class-level
#: ``assign_batch``): each one must earn its plan against its own
#: scalar path
PLAN_SCHEDULERS = [
    name for name in available_schedulers()
    if type(make_scheduler(name)).assign_batch is not Scheduler.assign_batch
]


@pytest.mark.parametrize("name", PLAN_SCHEDULERS)
def test_plan_floor(benchmark, name):
    """A scheduler's plan on the default path (planned columns drained
    as spans) must not lose to its own scalar oracle
    (``vectorized=False``).  A plan that loses is deleted, not
    tolerated.  The workload is sized past the span warm-up crossover
    (the column planner and span drain amortize over ~100k packets —
    below that the scalar oracle wins on fixed overhead alone, so this
    test ignores ``REPRO_BENCH_QUICK``), and the two paths are
    interleaved round-by-round so a slow patch on a shared runner hits
    both equally."""
    packets = 150_000
    svc = ServiceSet([Service(0, "ip-forward", units.us(0.5))])
    trace = preset_trace("caida-1", num_packets=packets)
    wl = build_workload(
        [trace], [HoltWintersParams(a=8e6)],
        duration_ns=int(round(packets / 8e6 * units.SEC)), seed=0,
    )
    cfg = SimConfig(num_cores=8, services=svc, collect_latencies=False)

    def one(vectorized):
        sched = make_scheduler(name)
        t0 = time.perf_counter()
        rep = simulate(wl, sched, cfg, vectorized=vectorized)
        return rep.generated / (time.perf_counter() - t0), rep

    def run():
        plan_pps = scalar_pps = 0.0
        plan_rep = scalar_rep = None
        for _ in range(3):  # interleaved: noise drifts hit both paths
            pps, plan_rep = one(True)
            plan_pps = max(plan_pps, pps)
            pps, scalar_rep = one(False)
            scalar_pps = max(scalar_pps, pps)
        return plan_pps, plan_rep, scalar_pps, scalar_rep

    plan_pps, plan_rep, scalar_pps, scalar_rep = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    assert plan_rep == scalar_rep  # the paths trade speed, never outcomes
    floor = float(os.environ.get("REPRO_BENCH_MIN_PPS", "20000"))
    assert plan_pps >= floor, (
        f"{name} on the default path at {plan_pps:,.0f} simulated pkts/s, "
        f"below the REPRO_BENCH_MIN_PPS floor of {floor:,.0f}"
    )
    assert plan_pps >= scalar_pps, (
        f"{name}'s plan ({plan_pps:,.0f} pkts/s) lost to its scalar "
        f"oracle ({scalar_pps:,.0f} pkts/s) — delete the plan or fix it"
    )


def test_simulator_event_loop_with_telemetry(benchmark):
    """Same loop with the full default probe battery attached, for a
    direct before/after read of the telemetry cost."""
    from repro.obs import TelemetryProbe

    wl, cfg = _event_loop_inputs()

    def run():
        probe = TelemetryProbe(units.us(100))
        return simulate(wl, make_scheduler("hash-static"), cfg, probe=probe)

    report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.generated == wl.num_packets
