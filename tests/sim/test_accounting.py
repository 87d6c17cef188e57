"""The kernel's books balance at every observation point.

The scalar loop only records its departures and drops, one egress-log
row each, and the kernel settles its metrics and reorder detector
where someone looks: a
sampler reading ``view.metrics`` or ``view.reorder``, the end of each
advance, a checkpoint, the final report.  These tests look at every
probe sample and after every advance of runs split at random
``run_until`` horizons, for the whole scheduler zoo with and without
core faults, and check that the books balance:

* every generated packet departed, was dropped, or is queued or in
  service;
* the reorder detector accounted exactly the departures and drops, and
  counted the same departures;
* one latency per departure.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro import units
from repro.experiments import tournament
from repro.faults.injector import FaultInjector
from repro.obs.probes import Sampler, TelemetryProbe
from repro.schedulers.base import available_schedulers
from repro.sim.kernel import SimKernel

DURATION_NS = units.ms(1)

#: fault schedule x drain policy (the policy only matters under a fault)
CASES = [("none", "drop")] + [
    (fault, policy)
    for fault in ("core-loss", "flap")
    for policy in ("drop", "reassign")
]


def assert_books_balance(view) -> None:
    """Check the accounting invariants on a sampler view (the kernel).

    The metric values are read before ``view.reorder`` is touched: each
    property settles the books on its own, so reading the reorder
    detector first would hide a ``metrics`` that skipped its settle.
    """
    metrics = view.metrics
    generated = metrics.generated
    departed = metrics.departed
    dropped = metrics.dropped
    n_latencies = metrics.latency_samples().size
    queued = sum(len(q) for q in view.queues.items)
    serving = sum(1 for pkt in view.state.core_current_pkt if pkt >= 0)
    assert generated == departed + dropped + queued + serving
    reorder = view.reorder
    assert reorder.accounted == departed + dropped
    assert reorder.departed == departed
    assert n_latencies == departed


class BooksSampler(Sampler):
    """Checks the invariants at every sample; contributes no column."""

    name = "books"

    def __init__(self) -> None:
        self.samples = 0

    def sample(self, t_ns: int, view) -> dict:
        assert_books_balance(view)
        self.samples += 1
        return {}


@lru_cache(maxsize=None)
def _workload(fault: str):
    # overloaded, so queues fill and drop
    return tournament._zoo_workload("G1", 1.1, DURATION_NS, 2_000, 0, fault)


@pytest.mark.parametrize("fault,drain_policy", CASES)
@pytest.mark.parametrize("name", available_schedulers())
def test_books_balance_at_every_observation(name, fault, drain_policy):
    config = tournament._zoo_config()
    assert config.collect_latencies
    kernel = SimKernel(config, tournament._zoo_scheduler(name), _workload(fault))
    if fault != "none":
        schedule = tournament._fault_schedule(fault, DURATION_NS)
        kernel.attach_injector(FaultInjector(schedule, drain_policy))
    books = BooksSampler()
    kernel.attach_probe(TelemetryProbe(units.us(20), [books]))
    rng = random.Random(f"{name}/{fault}/{drain_policy}")
    horizons = sorted(rng.sample(range(1, DURATION_NS), 5))
    for t_ns in horizons:
        kernel.run_until(t_ns)
        assert_books_balance(kernel)
        # the heap's causality floor is the last popped event
        assert kernel.state.last_pop_ns <= kernel.now_ns
    report = kernel.run()
    assert_books_balance(kernel)
    assert books.samples > DURATION_NS // units.us(20) // 2
    assert report.generated == kernel.state.metrics.generated > 0
    assert report.dropped > 0
