"""Tests for the event heap."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import EventQueue


class TestOrdering:
    def test_time_order(self):
        q = EventQueue()
        q.push(30, "c")
        q.push(10, "a")
        q.push(20, "b")
        assert [q.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_ties_pop_in_insertion_order(self):
        q = EventQueue()
        q.push(5, "first")
        q.push(5, "second")
        assert q.pop()[1] == "first"
        assert q.pop()[1] == "second"

    def test_payloads_never_compared(self):
        q = EventQueue()
        q.push(1, object())
        q.push(1, object())  # would raise if tuples compared payloads
        q.pop()
        q.pop()


class TestCausality:
    def test_push_into_past_rejected(self):
        q = EventQueue()
        q.push(10, "a")
        q.pop()
        with pytest.raises(SimulationError):
            q.push(5, "late")

    def test_push_at_current_time_ok(self):
        q = EventQueue()
        q.push(10, "a")
        q.pop()
        q.push(10, "b")
        assert q.pop() == (10, "b")

    def test_pop_empty_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()


class TestMisc:
    def test_len_and_bool(self):
        q = EventQueue()
        assert not q and len(q) == 0
        q.push(1, "x")
        assert q and len(q) == 1

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(7, "x")
        assert q.peek_time() == 7

    def test_clear(self):
        q = EventQueue()
        q.push(1, "x")
        q.pop()
        q.clear()
        q.push(0, "ok")  # causality reset

    def test_clear_resets_tie_break_counter(self):
        # a cleared queue must replay a push sequence with the same
        # (time, seq) heap entries as a fresh one; a stale counter
        # would make recycled queues order (and serialize) differently
        q = EventQueue()
        for i in range(5):
            q.push(10, i)
        q.pop()
        q.clear()
        q.push(7, "first")
        fresh = EventQueue()
        fresh.push(7, "first")
        assert q._heap == fresh._heap  # seq restarts at 0

    def test_cleared_queue_matches_fresh_pop_order(self):
        q = EventQueue()
        q.push(3, "x")
        q.clear()
        fresh = EventQueue()
        for target in (q, fresh):
            target.push(5, "a")
            target.push(5, "b")
            target.push(2, "c")
        assert [q.pop() for _ in range(3)] == [fresh.pop() for _ in range(3)]
        assert q.popped == fresh.popped == 3
