"""Tests for the per-core bounded queues of the queue bank."""

import pickle

import pytest

from repro.errors import ConfigError
from repro.sim.queues import QueueBank


class TestBoundedQueue:
    """One core's FIFO, driven through the bank."""

    def test_fifo(self):
        bank = QueueBank(2, 4)
        for i in range(3):
            assert bank.offer(1, i)
        assert bank.drain(1) == [0, 1, 2]
        assert bank.drain(0) == []

    def test_capacity_enforced(self):
        bank = QueueBank(1, 2)
        assert bank.offer(0, 1) and bank.offer(0, 2)
        assert not bank.offer(0, 3)
        assert list(bank.items[0]) == [1, 2]
        assert bank.occ == [2]

    def test_full_empty_flags(self):
        bank = QueueBank(1, 1)
        assert bank.occ == [0] and not bank.items[0]
        bank.offer(0, 1)
        assert bank.occ == [bank.queue_capacity]

    def test_invalid_capacity(self):
        with pytest.raises(ConfigError, match="capacity"):
            QueueBank(2, 0)

    def test_clear(self):
        bank = QueueBank(1, 4)
        bank.offer(0, 1)
        assert bank.drain(0) == [1]
        assert not bank.items[0] and bank.occ == [0]


class TestQueueBank:
    def test_loadview_protocol(self):
        bank = QueueBank(4, 32)
        assert bank.num_cores == 4
        assert bank.queue_capacity == 32
        assert bank.occ == [0, 0, 0, 0]

    def test_occupancy_tracks_queue(self):
        bank = QueueBank(2, 8)
        bank.offer(1, 7)
        assert bank.occ == [0, 1]
        assert bank.occupancies() == [0, 1]

    def test_down_core_reads_full_and_pickle_relinks(self):
        """A down core reads full in ``occ`` (and refuses offers) while
        its FIFO stays empty; an unpickled bank's writers keep its own
        ``occ`` exact and leave the original's alone."""
        bank = QueueBank(2, 4)
        occ = bank.occ
        bank.offer(0, 1)
        bank.offer(0, 2)
        bank.mark_down(0)
        assert bank.drain(0) == [1, 2]
        assert not bank.offer(0, 3)
        assert occ == [4, 0]
        assert bank.occupancies() == [0, 0]
        assert bank.cores_down() == [0]
        back = pickle.loads(pickle.dumps(bank))
        assert back.occ == [4, 0] and back.down == [True, False]
        back.mark_up(0)
        back.offer(1, 5)
        assert back.occ == [0, 1] and back.cores_down() == []
        assert bank.occ is occ and occ == [4, 0]

    def test_invalid_size(self):
        with pytest.raises(ConfigError):
            QueueBank(0, 32)
