"""A fully-associative cache with Least-Frequently-Used replacement.

Both levels of the Aggressive Flow Detector (the 16-entry AFC and the
larger annex cache, paper Sec. III-F) are small fully-associative LFU
caches.  This model keeps exact per-entry frequency counters and evicts
the minimum-count entry.

The implementation is a frequency-bucket LFU: a dict of key -> count
plus frequency buckets (count -> insertion-ordered key set) and the
minimum count.  The AFD calls :meth:`LFUCache.hit` or
:meth:`LFUCache.insert` on every packet, so both keep the minimum exact
without looking at the other buckets:

* a hit moves its key from ``c`` to ``c + 1``; if that empties the
  minimum bucket, the minimum is ``c + 1``, where the key now sits;
* an insert into a full cache evicts the minimum-count entry; a key
  inserted at or below the evicted count is the new minimum, and one
  inserted above it leaves the minimum where it was unless the evicted
  entry was the last of its bucket.

Three rarer cases take the minimum over the buckets, of which there are
at most ``capacity``: that last one, an explicit :meth:`LFUCache.evict`
that empties the minimum bucket, and re-inserting a resident key at a
new count.  In the AFD the first two are promotions and invalidations:
31 in a 120,911-packet LAPS run, against one hit or insert per packet.

Tie-break: among minimum-count entries the one least recently *moved to
that count* is evicted (FIFO within the frequency bucket) — the
standard LFU-with-LRU-tiebreak hardware approximation, and fully
deterministic.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator

from repro.errors import ConfigError

__all__ = ["LFUCache"]


class LFUCache:
    """Fully-associative LFU cache mapping keys to frequency counts.

    Not a general value store: entries carry only their counter (the
    AFD needs nothing else).
    """

    __slots__ = ("_capacity", "_counts", "_buckets", "_min_count")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._counts: dict[Hashable, int] = {}
        # count -> {key: None}; plain dicts preserve insertion order,
        # giving the FIFO-within-bucket tie-break for free
        self._buckets: dict[int, dict[Hashable, None]] = {}
        # min(self._buckets) whenever the cache is not empty
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
        """Take *key* out of bucket *count*; re-derives the minimum when
        that empties the minimum bucket."""
        bucket = self._buckets[count]
        del bucket[key]
        if not bucket:
            del self._buckets[count]
            if self._min_count == count and self._buckets:
                self._min_count = min(self._buckets)

    # ------------------------------------------------------------------
    def hit(self, key: Hashable) -> int:
        """Pure lookup: increment the counter iff resident.  Returns the
        new count (at least 1), or 0 when *key* is absent."""
        counts = self._counts
        count = counts.get(key)
        if count is None:
            return 0
        new = count + 1
        counts[key] = new
        buckets = self._buckets
        bucket = buckets[count]
        del bucket[key]
        if not bucket:
            del buckets[count]
            if self._min_count == count:
                self._min_count = new
        bucket = buckets.get(new)
        if bucket is None:
            buckets[new] = {key: None}
        else:
            bucket[key] = None
        return new

    def insert(self, key: Hashable, count: int = 1) -> Hashable | None:
        """Force *key* in with an initial *count*; returns the evicted
        victim (or None).  Re-inserting a resident key just overwrites
        its counter."""
        if count < 0:
            raise ConfigError(f"count must be >= 0, got {count}")
        counts = self._counts
        old = counts.get(key)
        if old is not None:
            if old != count:
                counts[key] = count
                # add before removing: a re-derived minimum must see
                # the new bucket
                self._bucket_add(key, count)
                self._bucket_remove(key, old)
                if count < self._min_count:
                    self._min_count = count
            return None
        if len(counts) < self._capacity:
            counts[key] = count
            self._bucket_add(key, count)
            if len(counts) == 1 or count < self._min_count:
                self._min_count = count
            return None
        # full: evict the LFU entry, the first of the minimum bucket
        low = self._min_count
        buckets = self._buckets
        bucket = buckets[low]
        victim = next(iter(bucket))
        del bucket[victim]
        del counts[victim]
        if not bucket:
            del buckets[low]
        counts[key] = count
        self._bucket_add(key, count)
        if count <= low:
            self._min_count = count
        elif low not in buckets:
            self._min_count = min(buckets)
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
