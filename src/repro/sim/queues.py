"""Bounded per-core input queues.

Each core owns a FIFO of packet descriptors bounded at
``queue_capacity`` (32 in the paper, after Ohlendorf et al.); "a packet
is lost when it is assigned to a queue which is already full"
(Sec. IV-C2).  :class:`QueueBank` holds every core's FIFO as one deque
in the ``items`` list and also implements the scheduler-facing
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
c is down and ``len(items[c])`` otherwise, at every point a scheduler
or sampler can observe.  :meth:`QueueBank.offer`, :meth:`~QueueBank.drain`,
:meth:`~QueueBank.mark_down` and :meth:`~QueueBank.mark_up` keep it;
the kernel's inlined enqueue/dequeue and the span commit's queue
rebuild update it alongside the deques they touch.  The ``items``,
``down`` and ``occ`` lists and every deque are created once per bank
and mutated in place, never rebound, so hot loops may bind them.  A
bank pickles as it is.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

__all__ = ["QueueBank"]


class QueueBank:
    """All cores' input queues; satisfies the ``LoadView`` protocol."""

    __slots__ = ("items", "down", "occ", "queue_capacity")

    def __init__(self, num_cores: int, queue_capacity: int) -> None:
        if num_cores <= 0:
            raise ConfigError(f"need at least one core, got {num_cores}")
        if queue_capacity <= 0:
            raise ConfigError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        #: per-core FIFO of queued packet indices, oldest first
        self.items: list[deque[int]] = [deque() for _ in range(num_cores)]
        #: per-core "the core is dead" flag (see module doc)
        self.down = [False] * num_cores
        #: per-core load: queue length, or the capacity while down
        self.occ = [0] * num_cores
        self.queue_capacity = queue_capacity

    @property
    def num_cores(self) -> int:
        return len(self.items)

    def offer(self, core: int, pkt: int) -> bool:
        """Enqueue *pkt* on *core*; False when full or down (a down
        queue's ``occ`` reads full, so one test covers both)."""
        n = self.occ[core]
        if n >= self.queue_capacity:
            return False
        self.items[core].append(pkt)
        self.occ[core] = n + 1
        return True

    def drain(self, core: int) -> list[int]:
        """Remove and return *core*'s queued packets, oldest first."""
        items = self.items[core]
        out = list(items)
        items.clear()
        if not self.down[core]:
            self.occ[core] = 0
        return out

    # core health (driven by repro.faults) -------------------------------
    def mark_down(self, core: int) -> None:
        """The core died: refuse offers, report the queue as full."""
        self.down[core] = True
        self.occ[core] = self.queue_capacity

    def mark_up(self, core: int) -> None:
        """The core recovered: accept offers again."""
        self.down[core] = False
        self.occ[core] = len(self.items[core])

    def cores_down(self) -> list[int]:
        """Ids of cores currently marked down (ascending)."""
        return [c for c, d in enumerate(self.down) if d]

    def occupancies(self) -> list[int]:
        """Raw FIFO depths per core (a down core reads 0 here; the
        ``LoadView`` list :attr:`occ` is what reports it as full)."""
        return [len(q) for q in self.items]
