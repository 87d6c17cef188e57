"""Load reads through ``LoadView.occ``: scan twins and a method-free view.

FCFS's join-shortest-queue scan and ``Scheduler._min_queue_core``
(``findMinQ``) are C-level ``min`` + ``list.index`` over the bank's
``occ`` list.  The reference functions below are the per-core loops
they replaced; the hypothesis twins hold the two to the same choice,
scan order and tie-breaks on vectors full of ties, zeros and
capacity-valued (down) cores.  The last test binds every registered
scheduler to a view that carries nothing but ``num_cores``,
``queue_capacity`` and ``occ``, so any read outside the list fails.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.schedulers.base import Scheduler, available_schedulers
from repro.schedulers.fcfs import FCFSScheduler
from tests.schedulers.test_assign_batch import _make, _sequence

CAP = 32


class OccView:
    """The whole ``LoadView`` surface and nothing else."""

    __slots__ = ("num_cores", "queue_capacity", "occ")

    def __init__(self, occ: list[int], queue_capacity: int = CAP) -> None:
        self.num_cores = len(occ)
        self.queue_capacity = queue_capacity
        self.occ = occ


class _Probe(Scheduler):
    def select_core(self, flow_id, service_id, flow_hash, t_ns):
        return 0


def ref_fcfs(occ: list[int], start: int) -> int:
    """The per-core rotated scan FCFS ran before the list."""
    n = len(occ)
    best = -1
    best_occ = None
    for off in range(n):
        c = (start + off) % n
        o = occ[c]
        if best_occ is None or o < best_occ:
            best, best_occ = c, o
            if o == 0:
                break
    return best


def ref_min_queue_core(occ: list[int], cores) -> int:
    """The per-core ``findMinQ`` loop from before the list."""
    best = None
    best_occ = None
    for c in cores:
        o = occ[c]
        if best_occ is None or o < best_occ:
            best, best_occ = c, o
    if best is None:
        raise SchedulerError("empty core set")
    return best


# ties, zeros and down cores (which read as the capacity) all common
occupancies = st.lists(
    st.one_of(st.integers(0, 3), st.just(CAP)), min_size=1, max_size=16
)


@settings(max_examples=500, deadline=None)
@given(occ=occupancies, data=st.data())
def test_fcfs_matches_rotated_scan(occ, data):
    n = len(occ)
    start = data.draw(st.integers(0, n - 1), label="start")
    sched = FCFSScheduler()
    sched.bind(OccView(occ))
    sched._rr = start
    assert sched.select_core(0, 0, 0, 0) == ref_fcfs(occ, start)
    assert sched._rr == (start + 1) % n


@settings(max_examples=100, deadline=None)
@given(steps=st.lists(occupancies.filter(lambda v: len(v) == 8), max_size=40))
def test_fcfs_rotation_over_a_sequence(steps):
    view = OccView([0] * 8)
    sched = FCFSScheduler()
    sched.bind(view)
    rr = 0
    for occ in steps:
        view.occ[:] = occ
        assert sched.select_core(0, 0, 0, 0) == ref_fcfs(occ, rr)
        rr = (rr + 1) % 8


@settings(max_examples=500, deadline=None)
@given(occ=occupancies, data=st.data())
def test_min_queue_core_matches_loop(occ, data):
    n = len(occ)
    cores = data.draw(
        st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="cores"
    )
    sched = _Probe()
    sched.bind(OccView(occ))
    assert sched._min_queue_core() == ref_min_queue_core(occ, range(n))
    if cores:
        assert sched._min_queue_core(cores) == ref_min_queue_core(occ, cores)
        assert sched._min_queue_core(tuple(cores)) == ref_min_queue_core(occ, cores)
    else:
        with pytest.raises(SchedulerError, match="empty core set"):
            sched._min_queue_core(cores)


def _thresholds(sched: Scheduler) -> set[int]:
    values = {
        getattr(sched, "high_threshold", None),
        getattr(sched, "rebind_threshold", None),
        getattr(getattr(sched, "config", None), "high_threshold", None),
    }
    return {v for v in values if isinstance(v, int)}


def _patterns(sched: Scheduler, n: int) -> list[list[int]]:
    """Occupancy vectors at, just below and above every threshold the
    scheduler reads, uniform and mixed with idle and full cores."""
    levels = {0, 1, CAP}
    for t in _thresholds(sched):
        levels |= {t - 1, t, t + 1}
    levels = sorted(v for v in levels if 0 <= v <= CAP)
    out = []
    for level in levels:
        out.append([level] * n)
        out.append([level if c % 2 == 0 else 0 for c in range(n)])
    out.append([levels[c % len(levels)] for c in range(n)])
    out.append([CAP - (c % 3) for c in range(n)])
    return out


@pytest.mark.parametrize("name", available_schedulers())
def test_every_scheduler_reads_only_occ(name):
    fh, sid, fid, arr = _sequence(1200)
    sched = _make(name)
    view = OccView([0] * 8)
    sched.bind(view)
    patterns = _patterns(sched, view.num_cores)
    for i in range(len(fh)):
        if i % 25 == 0:
            view.occ[:] = patterns[(i // 25) % len(patterns)]
        t = int(arr[i])
        if i == 400:
            sched.on_core_down(1, t)
        if i == 800:
            sched.on_core_up(1, t)
        if i % 100 == 0:
            sched.assign_batch(fh[i:], sid[i:], fid[i:], arr[i:])
        core = sched.select_core(int(fid[i]), int(sid[i]), int(fh[i]), t)
        assert 0 <= core < view.num_cores
