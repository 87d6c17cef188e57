"""Per-service map tables — paper Sec. III-B/C/E, Fig. 3.

Each service owns a *bucket list*: an ordered list of core ids.  An
incoming packet's CRC16 hash is reduced to a bucket index by the
service's :class:`~repro.core.incremental_hash.IncrementalHash`, and the
bucket list maps that index to the target core.  Growing the service
appends a core (splitting one bucket's flows); removing a core deletes
its bucket and shifts later ids down (Sec. III-D: "other core IDs will
be shifted to take the place of this ID"), shrinking the hash.
"""

from __future__ import annotations

from repro.core.incremental_hash import IncrementalHash
from repro.errors import SchedulerError

__all__ = ["ServiceMapTable"]


class ServiceMapTable:
    """One service's bucket list plus its incremental hash.

    ``LAPSScheduler.select_core`` reads ``_cores`` (bucket -> core)
    and ``_hash`` in place on every packet, as :meth:`lookup` does.
    """

    __slots__ = ("service_id", "_cores", "_hash")

    def __init__(self, service_id: int, initial_cores: list[int]) -> None:
        if not initial_cores:
            raise SchedulerError(
                f"service {service_id} needs at least one core in its map table"
            )
        if len(set(initial_cores)) != len(initial_cores):
            raise SchedulerError(f"duplicate core ids in map table: {initial_cores}")
        self.service_id = service_id
        self._cores: list[int] = list(initial_cores)
        self._hash = IncrementalHash(len(initial_cores))

    # ------------------------------------------------------------------
    @property
    def cores(self) -> tuple[int, ...]:
        """The bucket list (index = bucket, value = core id)."""
        return tuple(self._cores)

    @property
    def num_cores(self) -> int:
        return len(self._cores)

    def __contains__(self, core_id: int) -> bool:
        return core_id in self._cores

    def lookup(self, hashed_key: int) -> int:
        """Target core for an already-CRC16-hashed flow key."""
        return self._cores[self._hash.bucket_of(hashed_key)]

    # ------------------------------------------------------------------
    def add_core(self, core_id: int) -> int:
        """Append *core_id* as a new bucket; returns the index of the
        bucket whose flows are now split with the new one."""
        if core_id in self._cores:
            raise SchedulerError(
                f"core {core_id} already in service {self.service_id}'s table"
            )
        split = self._hash.grow()
        self._cores.append(core_id)
        return split

    def remove_core(self, core_id: int) -> None:
        """Remove *core_id* from the bucket list.

        Only the *last* bucket can shrink the hash cleanly, so the
        victim's bucket first swaps with the last bucket (both remaps
        affect only lightly-loaded flows, tolerable per Sec. III-D),
        then the tail bucket is folded back.
        """
        if len(self._cores) == 1:
            raise SchedulerError(
                f"cannot remove the last core of service {self.service_id}"
            )
        try:
            idx = self._cores.index(core_id)
        except ValueError:
            raise SchedulerError(
                f"core {core_id} is not in service {self.service_id}'s table"
            ) from None
        last = len(self._cores) - 1
        if idx != last:
            self._cores[idx], self._cores[last] = self._cores[last], self._cores[idx]
        self._cores.pop()
        self._hash.shrink()

    def remapped_fraction_on_grow(self, sample_hashes: list[int]) -> float:
        """Diagnostic: fraction of sample keys that would move if a core
        were added now."""
        return self._hash.remapped_fraction(sample_hashes)
