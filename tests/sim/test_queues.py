"""Tests for bounded queues and the queue bank."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.sim.queues import BoundedQueue, QueueBank


class TestBoundedQueue:
    def test_fifo(self):
        q = BoundedQueue(4)
        for i in range(3):
            assert q.offer(i)
        assert [q.take() for _ in range(3)] == [0, 1, 2]

    def test_capacity_enforced(self):
        q = BoundedQueue(2)
        assert q.offer(1) and q.offer(2)
        assert not q.offer(3)
        assert len(q) == 2

    def test_full_empty_flags(self):
        q = BoundedQueue(1)
        assert len(q) == 0
        q.offer(1)
        assert len(q) == q.capacity

    def test_take_empty_raises(self):
        with pytest.raises(IndexError):
            BoundedQueue(1).take()

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError):
            BoundedQueue(0)

    def test_clear(self):
        q = BoundedQueue(4)
        q.offer(1)
        q.clear()
        assert len(q) == 0


class TestQueueBank:
    def test_loadview_protocol(self):
        bank = QueueBank(4, 32)
        assert bank.num_cores == 4
        assert bank.queue_capacity == 32
        assert bank.occ == [0, 0, 0, 0]

    def test_occupancy_tracks_queue(self):
        bank = QueueBank(2, 8)
        bank[1].offer(7)
        assert bank.occ == [0, 1]
        assert bank.occupancies() == [0, 1]

    def test_down_core_reads_full_and_pickle_relinks(self):
        bank = QueueBank(2, 4)
        occ = bank.occ
        bank[0].offer(1)
        bank[0].offer(2)
        assert bank[0].drain() == [1, 2]
        bank.mark_down(0)
        assert not bank[0].offer(3)
        assert occ == [4, 0]
        assert bank.occupancies() == [0, 0]
        back = pickle.loads(pickle.dumps(bank))
        assert back.occ == [4, 0]
        back.mark_up(0)
        back[1].offer(5)
        assert back.occ == [0, 1]
        assert bank.occ is occ and occ == [4, 0]

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            QueueBank(0, 32)

    def test_iteration(self):
        bank = QueueBank(3, 4)
        assert len(list(bank)) == 3
