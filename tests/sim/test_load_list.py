"""The queue bank's ``occ`` list stays exact through every writer.

``QueueBank.occ[c]`` is what every load-aware decision reads: core
c's queue length, or the queue capacity while c is down.  The kernel's
inlined enqueue and dequeue, the span commit's queue rebuild, the
fault injector's drain/reassign and checkpoint/resume all have to keep
it equal to the queues it mirrors.  The property test below pauses
random tournament-style runs (any scheduler, any fault schedule and
drain policy, either path) and checks the list at every pause, across
a checkpoint resumed on the other path, and after the run.
"""

from __future__ import annotations

import gzip
import pickle
from functools import lru_cache
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.experiments import tournament
from repro.faults.injector import FaultInjector, apply_traffic_events
from repro.schedulers.base import available_schedulers
from repro.sim.kernel import Checkpoint, SimKernel
from tests.schedulers.test_assign_batch import _config, _workload

FIXTURES = Path(__file__).parent / "fixtures"

DURATION_NS = units.us(500)


def assert_exact(kernel: SimKernel) -> None:
    bank = kernel.queues
    cap = bank.queue_capacity
    assert bank.occ == [
        cap if down else len(q) for q, down in zip(bank.items, bank.down)
    ]


@lru_cache(maxsize=None)
def _base_workload(utilisation: float):
    return tournament._zoo_workload(
        "G1", utilisation, DURATION_NS, 2_000, 0, "none"
    )


def _workload_with(fault: str, utilisation: float):
    """The zoo cell's workload: surges are applied to the arrivals."""
    schedule = tournament._fault_schedule(fault, DURATION_NS)
    return apply_traffic_events(_base_workload(utilisation), schedule)


def _kernel(name, fault, drain_policy, workload, vectorized):
    kernel = SimKernel(
        tournament._zoo_config(), tournament._zoo_scheduler(name), workload,
        vectorized=vectorized,
    )
    if fault != "none":
        schedule = tournament._fault_schedule(fault, DURATION_NS)
        kernel.attach_injector(FaultInjector(schedule, drain_policy))
    return kernel


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    name=st.sampled_from(available_schedulers()),
    fault=st.sampled_from(tournament.FAULT_NAMES),
    drain_policy=st.sampled_from(["drop", "reassign"]),
    vectorized=st.booleans(),
    utilisation=st.sampled_from([0.6, 1.1]),
    horizons=st.lists(
        st.integers(1, DURATION_NS), min_size=1, max_size=6, unique=True
    ).map(sorted),
    data=st.data(),
)
def test_occ_exact_at_every_pause(
    name, fault, drain_policy, vectorized, utilisation, horizons, data
):
    wl = _workload_with(fault, utilisation)
    kernel = _kernel(name, fault, drain_policy, wl, vectorized)
    occ = kernel.queues.occ
    items = kernel.queues.items
    assert_exact(kernel)
    resume_at = data.draw(st.integers(0, len(horizons) - 1), label="resume_at")
    resumed = None
    for i, t in enumerate(horizons):
        kernel.run_until(t)
        assert_exact(kernel)
        # mutated in place, never rebound
        assert kernel.queues.occ is occ and kernel.queues.items is items
        if resumed is not None:
            resumed.run_until(t)
            assert_exact(resumed)
        if i == resume_at:
            resumed = SimKernel.resume(
                kernel.checkpoint(), tournament._zoo_config(), wl,
                vectorized=not vectorized,
            )
            assert_exact(resumed)
    report = kernel.run()
    assert_exact(kernel)
    assert resumed.run() == report
    assert_exact(resumed)


def test_committed_v7_checkpoint_keeps_occ_exact():
    """A v7 blob pickles the bank with its ``occ`` list: the list comes
    back exact and shared with the scheduler's load view (the blob was
    taken with core 1 down)."""
    saved = pickle.loads(gzip.decompress(
        (FIXTURES / "checkpoint_v7.pkl.gz").read_bytes()
    ))
    ckpt = Checkpoint.from_bytes(saved["checkpoint"])
    kernel = SimKernel.resume(
        ckpt, _config(record_departures=False), _workload(1, None)
    )
    assert_exact(kernel)
    assert kernel.queues.down[1]
    assert kernel.scheduler.loads is kernel.queues
    kernel.run()
    assert_exact(kernel)
