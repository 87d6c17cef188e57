"""Tests for the scheduler interface and registry."""

from functools import lru_cache

import pytest

import repro.schedulers  # noqa: F401  (registers everything)
from repro import units
from repro.errors import SchedulerError
from repro.experiments import tournament
from repro.schedulers.base import (
    Scheduler,
    available_schedulers,
    make_scheduler,
    register_scheduler,
)


class FakeLoads:
    def __init__(self, occ):
        self.occ = occ

    @property
    def num_cores(self):
        return len(self.occ)

    @property
    def queue_capacity(self):
        return 32


@lru_cache(maxsize=None)
def _faulted_cell():
    """One small faulted G1 zoo cell: (workload, injector factory)."""
    duration = units.ms(1)
    workload = tournament._zoo_workload("G1", 0.8, duration, 3_000, 0, "core-loss")
    return workload, lambda: tournament._zoo_injector("core-loss", duration)


class TestRegistry:
    def test_known_schedulers_registered(self):
        names = available_schedulers()
        for expected in ("fcfs", "afs", "hash-static", "laps", "topk"):
            assert expected in names

    def test_make_unknown_rejected(self):
        with pytest.raises(SchedulerError):
            make_scheduler("definitely-not-a-scheduler")

    def test_make_passes_kwargs(self):
        sched = make_scheduler("afs", high_threshold=10)
        assert sched.high_threshold == 10

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            @register_scheduler("fcfs")
            class Dup(Scheduler):  # pragma: no cover
                def select_core(self, *a):
                    return 0

    def test_name_attached(self):
        assert make_scheduler("fcfs").name == "fcfs"


class TestBindLifecycle:
    def test_unbound_use_rejected(self):
        sched = make_scheduler("fcfs")
        with pytest.raises(SchedulerError):
            sched.select_core(0, 0, 0, 0)

    def test_is_bound(self):
        sched = make_scheduler("fcfs")
        assert not sched.is_bound
        sched.bind(FakeLoads([0, 0]))
        assert sched.is_bound

    def test_min_queue_core_helper(self):
        sched = make_scheduler("fcfs")
        sched.bind(FakeLoads([3, 1, 2]))
        assert sched._min_queue_core(range(3)) == 1

    def test_min_queue_tie_lowest_id(self):
        sched = make_scheduler("fcfs")
        sched.bind(FakeLoads([2, 2, 2]))
        assert sched._min_queue_core(range(3)) == 0

    def test_min_queue_empty_set_rejected(self):
        sched = make_scheduler("fcfs")
        sched.bind(FakeLoads([1]))
        with pytest.raises(SchedulerError):
            sched._min_queue_core([])

    def test_default_stats_empty(self):
        assert make_scheduler("fcfs").stats() == {}

    @pytest.mark.parametrize("name", available_schedulers())
    def test_rebind_resets_to_a_fresh_instance(self, name):
        """``bind`` resets the scheduler onto a fresh system: a second
        run with a reused instance reports what a fresh one does
        (FCFS's rotation, top-k's detector and LAPS's counters used to
        leak across runs)."""
        from repro.sim.system import simulate

        workload, injector = _faulted_cell()
        cfg = tournament._zoo_config()

        def run(sched):
            return simulate(workload, sched, cfg, injector=injector())

        reused = tournament._zoo_scheduler(name)
        run(reused)
        assert run(reused) == run(tournament._zoo_scheduler(name))
