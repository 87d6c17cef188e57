"""Scalar/batch scheduling equivalence (the map-epoch protocol).

Two layers of pinning for the vectorized fast path:

* **scheduler-level** — twin instances of every registered policy see
  the same packet sequence, one through per-packet ``select_core``,
  the other through a consumer that replays the kernel's column
  discipline (plan via ``assign_batch``, consume planned entries with
  ``batch_commit``, replan on every ``map_epoch`` bump).  The chosen
  cores must match packet for packet — including across occupancy
  swings, which no plan may read, and mid-sequence epoch bumps forced
  by core down/up events — and the final ``stats()`` must be equal.

* **kernel-level** — full simulations with ``vectorized=True`` vs
  ``False`` must produce bit-equal reports across schedulers, seeds,
  materialized vs streamed sources at several chunk sizes, fault
  schedules, and mid-run checkpoint/resume in either direction
  (a vectorized checkpoint resumed scalar and vice versa).

Both layers run over every registered scheduler, plan or not, so a
plan added later joins them automatically.  The plan budget at the end
runs over the schedulers that have a plan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.experiments import tournament
from repro.faults.events import (
    CoreFail,
    CoreRecover,
    CoreSlowdown,
    FaultSchedule,
)
from repro.faults.injector import FaultInjector
from repro.net.service import Service, ServiceSet
from repro.schedulers.base import Scheduler, available_schedulers, make_scheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.kernel import SimKernel
from repro.sim.source import StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace

# ----------------------------------------------------------------------
# scheduler-level twins
# ----------------------------------------------------------------------


class MutableLoads:
    """A LoadView whose occupancies the test script mutates."""

    def __init__(self, num_cores: int = 8, queue_capacity: int = 32) -> None:
        self.num_cores = num_cores
        self.queue_capacity = queue_capacity
        self.occ = [0] * num_cores


def _make(name: str) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=2), rng=3)
    return make_scheduler(name)


def _has_plan(name: str) -> bool:
    return type(_make(name)).assign_batch is not Scheduler.assign_batch


#: every registered scheduler: the vectorized flag must never change a
#: report, whether or not the scheduler has a plan
KERNEL_SCHEDULERS = available_schedulers()

#: the registered schedulers with a plan (a class-level
#: ``assign_batch``); each must keep its plan cheap
PLAN_SCHEDULERS = [name for name in KERNEL_SCHEDULERS if _has_plan(name)]


def _sequence(n: int = 3000, seed: int = 11):
    rng = np.random.default_rng(seed)
    flow_id = rng.integers(0, 200, size=n).astype(np.int64)
    flow_hash = (flow_id * 2654435761) % 65536
    service_id = (flow_id % 2).astype(np.int32)
    arrival_ns = np.cumsum(rng.integers(200, 2000, size=n)).astype(np.int64)
    return flow_hash, service_id, flow_id.astype(np.int64), arrival_ns


def _script(loads: MutableLoads, n: int):
    """index -> mutation applied to (sched, loads) just before that
    packet, identically on both twins.  Swings occupancy across every
    plausible overload threshold (a plan that read it would diverge)
    and flaps a core, so every epoch-bump source fires mid-sequence."""

    def spike(sched, ld, t):
        ld.occ[:] = [31, 30, 2, 29, 31, 28, 30, 27][: ld.num_cores]

    def calm(sched, ld, t):
        ld.occ[:] = [0] * ld.num_cores

    def down(sched, ld, t):
        sched.on_core_down(1, t)

    def up(sched, ld, t):
        sched.on_core_up(1, t)

    return {n // 5: spike, 2 * n // 5: calm, 3 * n // 5: down, 4 * n // 5: up}


def _run_scalar(sched, loads, cols, script):
    fh, sid, fid, arr = cols
    chosen = []
    for i in range(len(fh)):
        t = int(arr[i])
        if i in script:
            script[i](sched, loads, t)
        chosen.append(sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t))
    return chosen


def _run_batched(sched, loads, cols, script):
    """The kernel's column discipline, replayed in miniature."""
    fh, sid, fid, arr = cols
    n = len(fh)
    chosen = []
    col: list[int] = []
    cl = ch = 0
    epoch = -1
    plan_li = -1
    commit = sched.batch_commit
    for i in range(n):
        t = int(arr[i])
        if i in script:
            script[i](sched, loads, t)
        if sched.map_epoch != epoch or (i >= ch and i > plan_li):
            out = sched.assign_batch(fh[i:], sid[i:], fid[i:], arr[i:])
            col = [] if out is None else out.tolist()
            cl = plan_li = i
            ch = i + len(col)
            epoch = sched.map_epoch
        if cl <= i < ch:
            core = col[i - cl]
            if commit is not None:
                commit(int(fid[i]), int(fh[i]))
        else:
            core = sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t)
        chosen.append(core)
    return chosen


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_batched_consumption_matches_scalar(name):
    cols = _sequence()
    scalar, batched = _make(name), _make(name)
    loads_a, loads_b = MutableLoads(), MutableLoads()
    scalar.bind(loads_a)
    batched.bind(loads_b)
    a = _run_scalar(scalar, loads_a, cols, _script(loads_a, len(cols[0])))
    b = _run_batched(batched, loads_b, cols, _script(loads_b, len(cols[0])))
    assert a == b
    assert scalar.stats() == batched.stats()


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_epoch_bumps_on_bind(name):
    sched = _make(name)
    before = sched.map_epoch
    sched.bind(MutableLoads())
    assert sched.map_epoch > before


def test_base_assign_batch_is_none():
    fh, sid, fid, arr = _sequence(16)
    sched = _make("fcfs")
    sched.bind(MutableLoads())
    if type(sched).assign_batch is Scheduler.assign_batch:
        assert sched.assign_batch(fh, sid, fid, arr) is None


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_planning_is_idempotent(name):
    """Planning twice over overlapping spans must not change state
    (the kernel replans the same suffix after every epoch bump).  A
    scheduler without a plan returns ``None`` both times."""
    fh, sid, fid, arr = _sequence(512)
    a, b = _make(name), _make(name)
    a.bind(MutableLoads())
    b.bind(MutableLoads())
    once = a.assign_batch(fh, sid, fid, arr)
    b.assign_batch(fh, sid, fid, arr)
    twice = b.assign_batch(fh, sid, fid, arr)
    assert (once is None) == (twice is None) == (not _has_plan(name))
    if once is not None:
        np.testing.assert_array_equal(once, twice)
    assert a.stats() == b.stats()
    assert a.map_epoch == b.map_epoch


def test_span_drainable_commits_have_a_span_form():
    """The span driver commits through ``batch_commit_span`` only, so a
    scheduler with per-packet plan bookkeeping must have one."""
    committing = []
    for name in KERNEL_SCHEDULERS:
        sched = _make(name)
        if sched.batch_commit is not None:
            committing.append(name)
            assert sched.batch_commit_span is not None, name
    assert committing  # adaptive-hash at least


# ----------------------------------------------------------------------
# kernel-level bit-identity
# ----------------------------------------------------------------------

def _two_service_inputs(packets=3_000):
    traces = [
        preset_trace("caida-1", num_packets=packets),
        preset_trace("auck-1", num_packets=packets),
    ]
    params = [
        HoltWintersParams(a=3e6, b=2e8, sigma=0.1),
        HoltWintersParams(a=2e6),
    ]
    return traces, params


def _config(**kw):
    svc = ServiceSet([Service(0, "a", 800), Service(1, "b", 1200)])
    kw.setdefault("num_cores", 4)
    kw.setdefault("services", svc)
    kw.setdefault("collect_latencies", True)
    kw.setdefault("record_departures", True)
    return SimConfig(**kw)


def _kernel_sched(name: str, rng: int = 5) -> Scheduler:
    if name == "laps":
        return LAPSScheduler(LAPSConfig(num_services=2), rng=rng)
    return make_scheduler(name)


def _workload(seed: int, chunk_size: int | None):
    traces, params = _two_service_inputs()
    if chunk_size is None:
        return build_workload(traces, params, duration_ns=units.ms(1), seed=seed)
    return StreamingSource(
        traces, params, units.ms(1), seed=seed, chunk_size=chunk_size
    )


def _faults() -> FaultSchedule:
    return FaultSchedule(
        [
            CoreSlowdown(units.us(150), core_id=2, factor=1.5),
            CoreFail(units.us(300), core_id=1),
            CoreSlowdown(units.us(450), core_id=2, factor=1.0),
            CoreRecover(units.us(650), core_id=1),
        ]
    )


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
@pytest.mark.parametrize("chunk_size", [None, 701, 4096])
@pytest.mark.parametrize("seed", [0, 9])
def test_vectorized_report_identical(name, chunk_size, seed):
    cfg = _config()
    wl = _workload(seed, chunk_size)
    fast = simulate(wl, _kernel_sched(name), cfg, vectorized=True)
    slow = simulate(wl, _kernel_sched(name), cfg, vectorized=False)
    assert fast == slow


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_vectorized_identical_under_faults(name):
    cfg = _config()
    wl = _workload(3, 997)
    fast = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=True,
    )
    slow = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=False,
    )
    assert fast == slow


def _flap_faults() -> FaultSchedule:
    """A core that fails and recovers twice (flap): every down/up edge
    is an epoch-bump source for map-keeping schedulers and an eviction
    trigger for flowlet/LAPS, so the planned columns churn mid-run."""
    return FaultSchedule(
        [
            CoreFail(units.us(200), core_id=2),
            CoreRecover(units.us(320), core_id=2),
            CoreFail(units.us(450), core_id=2),
            CoreRecover(units.us(600), core_id=2),
        ]
    )


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_vectorized_identical_under_core_flaps(name):
    cfg = _config()
    wl = _workload(6, 701)
    fast = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_flap_faults()), vectorized=True,
    )
    slow = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_flap_faults()), vectorized=False,
    )
    assert fast == slow


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
@pytest.mark.parametrize("vec_first", [True, False])
def test_cross_mode_checkpoint_resume(name, vec_first):
    """A checkpoint taken by one mode resumes exactly in the other —
    planned columns are never serialized and batch bookkeeping commits
    per dispatched packet, so the modes share all durable state."""
    cfg = _config()
    wl = _workload(1, None)
    expected = simulate(wl, _kernel_sched(name), cfg, vectorized=True)

    kernel = SimKernel(cfg, _kernel_sched(name), wl, vectorized=vec_first)
    kernel.attach_injector(FaultInjector(_faults()))
    base = simulate(
        wl, _kernel_sched(name), cfg,
        injector=FaultInjector(_faults()), vectorized=True,
    )
    kernel.run_until(units.us(400))  # mid-run, with a core down
    ckpt = kernel.checkpoint()
    resumed = SimKernel.resume(ckpt, cfg, wl, vectorized=not vec_first)
    assert resumed.run() == base
    # and the fault-free report differs (the schedule really did bite),
    # guarding against a vacuous comparison above
    assert base != expected or base.fault_events == 0


# ----------------------------------------------------------------------
# plan budget
# ----------------------------------------------------------------------

#: planned rows allowed per generated packet.  Every ``map_epoch`` bump
#: replans the suffix, so a scheduler that bumps the epoch on routine
#: decisions throws away most of what it plans.  The plans that earn
#: their place plan 1.0 rows per packet here.
PLAN_ROW_BUDGET = 16

_QUICK_CELL_NS = units.ms(2)


@pytest.fixture(scope="module")
def quick_cells():
    """The tournament's G1 cells at half load, 2 ms, one per fault
    schedule."""
    return [
        (fault, tournament._zoo_workload(
            "G1", 0.5, _QUICK_CELL_NS, 12_000, seed=0, fault=fault,
        ))
        for fault in tournament.FAULT_NAMES
    ]


@pytest.mark.parametrize("name", PLAN_SCHEDULERS)
def test_plan_rows_within_budget(name, quick_cells):
    for fault, wl in quick_cells:
        sched = tournament._zoo_scheduler(name)
        plan = sched.assign_batch
        rows = 0

        def counted(*args):
            nonlocal rows
            out = plan(*args)
            if out is not None:
                rows += len(out)
            return out

        sched.assign_batch = counted
        injector = (
            None if fault == "none"
            else tournament._zoo_injector(fault, _QUICK_CELL_NS)
        )
        report = simulate(wl, sched, tournament._zoo_config(), injector=injector)
        assert rows <= PLAN_ROW_BUDGET * report.generated, (
            f"{name} planned {rows} rows for {report.generated} packets "
            f"on the {fault!r} cell"
        )
