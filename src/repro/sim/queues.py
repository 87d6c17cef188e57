"""Bounded per-core input queues.

Each core owns a FIFO of packet descriptors bounded at
``queue_capacity`` (32 in the paper, after Ohlendorf et al.); "a packet
is lost when it is assigned to a queue which is already full"
(Sec. IV-C2).  :class:`QueueBank` also implements the scheduler-facing
:class:`~repro.schedulers.base.LoadView` protocol: its ``occ`` list
holds every core's load, so a load-aware decision reads a list entry
instead of calling into the queue.

A queue can be taken **down** (its core failed — see
:mod:`repro.faults`): a down queue refuses every ``offer`` and its
``occ`` entry reads as the full capacity.  That models the backpressure
a dead core's never-draining descriptor ring asserts in hardware —
load-aware schedulers that never heard about the failure still steer
away from it because it looks permanently full, while its real FIFO
stays empty.

The ``occ`` contract: ``occ[c]`` equals ``queue_capacity`` while core
c is down and ``len(bank[c])`` otherwise, at every point a scheduler
or sampler can observe.  ``BoundedQueue.offer/take/drain/clear`` and
``QueueBank.mark_down/mark_up`` write through to it; the kernel's
inlined enqueue/dequeue and the span commit's queue rebuild update it
alongside the deques they touch.  The list is created once per bank
and mutated in place, never rebound, so hot loops may bind it.  A
pickled bank carries the list with its queues; pickle's memo keeps
every queue's write-through link pointing at the bank's one list.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

__all__ = ["BoundedQueue", "QueueBank"]


class BoundedQueue:
    """A FIFO of packet indices with a hard capacity.

    A queue of a :class:`QueueBank` writes its load through to the
    bank's ``occ`` list; a standalone queue keeps a private one-entry
    list.
    """

    __slots__ = ("capacity", "_items", "down", "_occ", "_idx")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: deque[int] = deque()
        #: the owning core is dead; offers are refused (see module doc)
        self.down = False
        self._occ = [0]
        self._idx = 0

    def __setstate__(self, state) -> None:
        # checkpoints taken before the write-only ``drops`` and
        # ``peak`` counters were removed carry them in their slot
        # state: skip them
        for name in self.__slots__:
            setattr(self, name, state[1][name])

    def __len__(self) -> int:
        return len(self._items)

    def _sync(self) -> None:
        """Write this queue's load to its ``occ`` entry."""
        self._occ[self._idx] = self.capacity if self.down else len(self._items)

    def offer(self, item: int) -> bool:
        """Enqueue *item*; False when full or down."""
        items = self._items
        if self.down or len(items) >= self.capacity:
            return False
        items.append(item)
        self._occ[self._idx] = len(items)
        return True

    def take(self) -> int:
        """Dequeue the oldest item (raises IndexError when empty)."""
        item = self._items.popleft()
        self._sync()
        return item

    def min_item(self) -> int | None:
        """Smallest queued packet index, or None when empty (window
        retirement scans this — after a fault reassignment FIFO order
        is no longer index order, so the head is not the minimum)."""
        return min(self._items) if self._items else None

    def drain(self) -> list[int]:
        """Remove and return all queued items, oldest first."""
        items = list(self._items)
        self.clear()
        return items

    def clear(self) -> None:
        self._items.clear()
        self._sync()


class QueueBank:
    """All cores' input queues; satisfies the ``LoadView`` protocol."""

    __slots__ = ("_queues", "_capacity", "occ")

    def __init__(self, num_cores: int, queue_capacity: int) -> None:
        if num_cores <= 0:
            raise ConfigError(f"need at least one core, got {num_cores}")
        self._queues = [BoundedQueue(queue_capacity) for _ in range(num_cores)]
        self._capacity = queue_capacity
        #: per-core load: queue length, or the capacity while down
        self.occ = [0] * num_cores
        for c, q in enumerate(self._queues):
            q._occ = self.occ
            q._idx = c

    # LoadView protocol -------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self._queues)

    @property
    def queue_capacity(self) -> int:
        return self._capacity

    # core health (driven by repro.faults) -------------------------------
    def mark_down(self, core_id: int) -> None:
        """The core died: refuse offers, report the queue as full."""
        q = self._queues[core_id]
        q.down = True
        q._sync()

    def mark_up(self, core_id: int) -> None:
        """The core recovered: accept offers again."""
        q = self._queues[core_id]
        q.down = False
        q._sync()

    def cores_down(self) -> list[int]:
        """Ids of cores currently marked down (ascending)."""
        return [c for c, q in enumerate(self._queues) if q.down]

    # direct access ------------------------------------------------------
    def __getitem__(self, core_id: int) -> BoundedQueue:
        return self._queues[core_id]

    def __iter__(self):
        return iter(self._queues)

    def occupancies(self) -> list[int]:
        """Raw FIFO depths per core (a down core reads 0 here; the
        ``LoadView`` list :attr:`occ` is what reports it as full)."""
        return [len(q) for q in self._queues]
