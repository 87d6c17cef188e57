"""Tests for the event heap: ``SimState.push`` and the heap fields."""

from heapq import heappop

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.config import SimConfig
from repro.sim.kernel import SimState
from repro.sim.source import MaterializedSource
from repro.sim.workload import Workload


def _state() -> SimState:
    one = np.zeros(1, dtype=np.int64)
    wl = Workload(
        arrival_ns=one, service_id=one.astype(np.int32), flow_id=one,
        size_bytes=one + 64, flow_hash=one, seq=one,
        num_flows=1, num_services=1, duration_ns=1,
    )
    return SimState.initial(SimConfig(num_cores=2), MaterializedSource(wl))


def _pop(st: SimState):
    """Pop the next event the way the kernel's loop does."""
    time_ns, _, payload = heappop(st.heap)
    st.last_pop_ns = time_ns
    st.popped += 1
    return time_ns, payload


class TestOrdering:
    def test_time_order(self):
        st = _state()
        st.push(30, "c")
        st.push(10, "a")
        st.push(20, "b")
        assert [_pop(st)[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_pop_in_insertion_order(self):
        st = _state()
        st.push(5, "first")
        st.push(5, "second")
        assert st.heap == [(5, 0, "first"), (5, 1, "second")]
        assert st.seq == 2
        assert _pop(st)[1] == "first"
        assert _pop(st)[1] == "second"

    def test_payloads_never_compared(self):
        st = _state()
        st.push(1, object())
        st.push(1, object())  # would raise if tuples compared payloads
        _pop(st)
        _pop(st)
        assert st.popped == 2


class TestCausality:
    def test_push_into_past_rejected(self):
        st = _state()
        st.push(10, "a")
        _pop(st)
        with pytest.raises(SimulationError, match="before current time 10"):
            st.push(5, "late")
        assert st.heap == [] and st.seq == 1

    def test_push_at_current_time_ok(self):
        st = _state()
        assert st.last_pop_ns == -1
        st.push(10, "a")
        _pop(st)
        st.push(10, "b")
        assert _pop(st) == (10, "b")
