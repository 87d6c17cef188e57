"""A fully-associative cache with Least-Frequently-Used replacement.

Both levels of the Aggressive Flow Detector (the 16-entry AFC and the
larger annex cache, paper Sec. III-F) are small fully-associative LFU
caches.  This model keeps exact per-entry frequency counters and evicts
the minimum-count entry.

The implementation is the classic O(1) LFU: a dict of key -> count plus
frequency buckets (count -> insertion-ordered key set) and a running
minimum.  Hits, inserts and evictions are all O(1) amortised — the AFD
sits on the per-packet path of the simulator, and a linear LFU scan
over a 512-4096-entry annex was the simulation's bottleneck.

Tie-break: among minimum-count entries the one least recently *moved to
that count* is evicted (FIFO within the frequency bucket) — the
standard LFU-with-LRU-tiebreak hardware approximation, and fully
deterministic.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

__all__ = ["LFUCache"]


class LFUCache:
    """Fully-associative LFU cache mapping keys to frequency counts.

    Not a general value store: entries carry only their counter (the
    AFD needs nothing else).
    """

    __slots__ = ("_capacity", "_counts", "_buckets", "_min_count")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._counts: dict[Hashable, int] = {}
        # count -> {key: None}; plain dicts preserve insertion order,
        # giving the FIFO-within-bucket tie-break for free
        self._buckets: dict[int, dict[Hashable, None]] = {}
        self._min_count = 0

    def __setstate__(self, state) -> None:
        # checkpoints taken before the hit/miss/eviction counters were
        # dropped carry them in their slot state: skip them
        for name in self.__slots__:
            setattr(self, name, state[1][name])

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._counts

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._counts)

    def count(self, key: Hashable) -> int:
        """Current frequency counter of *key* (0 if absent)."""
        return self._counts.get(key, 0)

    def keys(self) -> list[Hashable]:
        """Resident keys (insertion order)."""
        return list(self._counts)

    @property
    def is_full(self) -> bool:
        return len(self._counts) >= self._capacity

    # ------------------------------------------------------------------
    # internal bucket plumbing
    # ------------------------------------------------------------------
    def _bucket_add(self, key: Hashable, count: int) -> None:
        bucket = self._buckets.get(count)
        if bucket is None:
            bucket = {}
            self._buckets[count] = bucket
        bucket[key] = None

    def _bucket_remove(self, key: Hashable, count: int) -> None:
        bucket = self._buckets[count]
        del bucket[key]
        if not bucket:
            del self._buckets[count]
            if self._min_count == count and self._buckets:
                # lazily re-derive; #distinct counts <= capacity
                self._min_count = min(self._buckets)

    # ------------------------------------------------------------------
    def hit(self, key: Hashable) -> bool:
        """Pure lookup: increment the counter iff resident."""
        count = self._counts.get(key)
        if count is None:
            return False
        self._counts[key] = count + 1
        # add to the new bucket before removing from the old one: the
        # removal may re-derive the running minimum over all buckets,
        # and the new bucket must already be visible to that scan
        self._bucket_add(key, count + 1)
        self._bucket_remove(key, count)
        return True

    def insert(self, key: Hashable, count: int = 1) -> Hashable | None:
        """Force *key* in with an initial *count*; returns the evicted
        victim (or None).  Re-inserting a resident key just overwrites
        its counter."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        old = self._counts.get(key)
        if old is not None:
            if old != count:
                self._counts[key] = count
                self._bucket_add(key, count)
                self._bucket_remove(key, old)
                if count < self._min_count:
                    self._min_count = count
            return None
        victim = None
        if len(self._counts) >= self._capacity:
            victim = self.lfu_key()
            self.evict(victim)
        self._counts[key] = count
        self._bucket_add(key, count)
        if len(self._counts) == 1 or count < self._min_count:
            self._min_count = count
        return victim

    def lfu_key(self) -> Hashable:
        """The current LFU victim (min count, least recently moved to
        that count wins ties)."""
        if not self._counts:
            raise KeyError("cache is empty")
        return next(iter(self._buckets[self._min_count]))

    def evict(self, key: Hashable) -> int:
        """Remove *key*; returns its final counter value."""
        count = self._counts.pop(key)
        self._bucket_remove(key, count)
        return count

    def invalidate(self, key: Hashable) -> bool:
        """Remove *key* if present (the scheduler invalidates an AFC
        entry once the flow has been migrated, Listing 1 line 8)."""
        if key in self._counts:
            self.evict(key)
            return True
        return False

    def clear(self) -> None:
        self._counts.clear()
        self._buckets.clear()
        self._min_count = 0
