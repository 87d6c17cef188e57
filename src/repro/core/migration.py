"""The migration table — paper Sec. III-A/E, Fig. 3.

Flows the load balancer has moved live here as exact-match
``flow -> core`` entries; the table is consulted *before* the map table
("the scheduler gives priority to the output of migration table over
the default hash table").  Hardware would make this a small CAM, so the
model has a bounded capacity with FIFO replacement of the oldest entry —
an evicted flow simply falls back to its hash-assigned core.

Entries become stale when their target core leaves the service or when
the map table would now route the flow to the same core anyway; the
scheduler prunes via :meth:`drop_core` / :meth:`remove`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import ConfigError

__all__ = ["MigrationTable"]


class MigrationTable:
    """Bounded exact-match flow->core override table.

    Also maintains per-core pin counts (:meth:`pins_on`) so the load
    balancer can see how many migrated flows it has already steered to
    each core — the instantaneous queue alone lags a just-installed
    elephant by the queue drain time, so placement consults both.

    ``LAPSScheduler.select_core`` reads ``_entries`` (flow -> core) in
    place on every packet, as :meth:`lookup` does.
    """

    __slots__ = ("_capacity", "_entries", "_per_core", "insertions", "evictions")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._per_core: dict[int, int] = {}
        self.insertions = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._entries

    def lookup(self, flow_id: int) -> int | None:
        """Target core for *flow_id*, or None when not migrated."""
        return self._entries.get(flow_id)

    def items(self) -> list[tuple[int, int]]:
        """(flow, core) pairs, oldest first."""
        return list(self._entries.items())

    def pins_on(self, core_id: int) -> int:
        """Number of flows currently pinned to *core_id*."""
        return self._per_core.get(core_id, 0)

    # ------------------------------------------------------------------
    def _inc(self, core_id: int, delta: int) -> None:
        count = self._per_core.get(core_id, 0) + delta
        if count:
            self._per_core[core_id] = count
        else:
            self._per_core.pop(core_id, None)

    def add(self, flow_id: int, core_id: int) -> int | None:
        """Pin *flow_id* to *core_id* (Listing 1 line 7).

        Re-adding an existing flow re-targets it in place.  Returns the
        flow id evicted to make room, or None.
        """
        old = self._entries.get(flow_id)
        if old is not None:
            self._entries[flow_id] = core_id
            self._inc(old, -1)
            self._inc(core_id, +1)
            return None
        victim = None
        if len(self._entries) >= self._capacity:
            victim, victim_core = self._entries.popitem(last=False)
            self._inc(victim_core, -1)
            self.evictions += 1
        self._entries[flow_id] = core_id
        self._inc(core_id, +1)
        self.insertions += 1
        return victim

    def remove(self, flow_id: int) -> bool:
        """Drop one entry; True if it existed."""
        core = self._entries.pop(flow_id, None)
        if core is None:
            return False
        self._inc(core, -1)
        return True

    def drop_core(self, core_id: int) -> list[int]:
        """Remove every entry targeting *core_id* (the core left this
        service); returns the affected flow ids."""
        stale = [f for f, c in self._entries.items() if c == core_id]
        for f in stale:
            del self._entries[f]
        self._per_core.pop(core_id, None)
        return stale

    def clear(self) -> None:
        self._entries.clear()
        self._per_core.clear()

    def reset(self) -> None:
        """Clear the entries and the statistics."""
        self.clear()
        self.insertions = self.evictions = 0
