"""Incremental (linear) hashing — paper Sec. III-C.

A service starts with ``m`` map-table buckets and hash
``h1(k) = CRC16(k) % m``.  When the service gains a core the bucket
count ``b`` grows by one and the hash becomes

    h(k) = h2(k)   if h1(k) <  b - m      (split buckets)
         = h1(k)   if h1(k) >= b - m      (unsplit buckets)

with ``h2(k) = CRC16(k) % 2m``; once ``b`` reaches ``2m`` the level
doubles (``m <- 2m``) and splitting starts over.  Shrinking reverses the
split.  The point (and the property the tests pin down): growing from
``b`` to ``b+1`` remaps only the keys of the *one* split bucket —
minimal disruption to existing flows, unlike a plain ``% b`` rehash
which scatters nearly everything.

This is textbook Litwin linear hashing specialised to the paper's
notation.  The class is deliberately independent of CRC16: it maps an
already-hashed integer to a bucket, so any :class:`~repro.hashing.crc`
spec (or a test's identity hash) can front it.
"""

from __future__ import annotations

from repro.errors import ConfigError

__all__ = ["IncrementalHash"]


class IncrementalHash:
    """Linear-hashing bucket mapper with grow/shrink by one bucket.

    ``LAPSScheduler.select_core`` computes :meth:`bucket_of` itself on
    every packet from ``_m`` (the level size ``m``) and ``_buckets``
    (the bucket count ``b``), so those two fields keep that meaning.
    """

    __slots__ = ("_initial_m", "_m", "_buckets")

    def __init__(self, initial_buckets: int) -> None:
        if initial_buckets <= 0:
            raise ConfigError(f"need at least one bucket, got {initial_buckets}")
        self._initial_m = initial_buckets
        self._m = initial_buckets
        self._buckets = initial_buckets

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        """Current bucket count ``b``."""
        return self._buckets

    @property
    def level_m(self) -> int:
        """Current level size ``m`` (``m <= b <= 2m``, except the
        fully-shrunk single-bucket state)."""
        return self._m

    @property
    def split_pointer(self) -> int:
        """``b - m``: buckets ``[0, split)`` are split, the rest are not."""
        return self._buckets - self._m

    def bucket_of(self, hashed_key: int) -> int:
        """Map a hash value to a bucket index in ``[0, b)``."""
        if hashed_key < 0:
            raise ConfigError(f"hash values must be >= 0, got {hashed_key}")
        h1 = hashed_key % self._m
        if h1 < self._buckets - self._m:
            return hashed_key % (2 * self._m)
        return h1

    # ------------------------------------------------------------------
    def grow(self) -> int:
        """Add one bucket; returns the index of the bucket that was
        split (whose keys are now shared with the new last bucket)."""
        split = self._buckets - self._m
        self._buckets += 1
        if self._buckets == 2 * self._m:
            # level complete: every bucket of this level is split
            self._m *= 2
        return split

    def shrink(self) -> int:
        """Remove the last bucket.

        Returns the index the removed bucket's keys fold back into —
        or ``-1`` when the shrink crossed an *odd* level boundary:
        an odd level has no bucket pairing, so the structure falls back
        to a fresh level at ``b - 1`` buckets (``h(k) = k % (b-1)``),
        which remaps keys across *all* buckets.  The caller should
        treat -1 as "full rehash" (Sec. III-D tolerates this: the
        releasing service is lightly loaded by construction).

        Raises when already at a single bucket.
        """
        if self._buckets <= 1:
            raise ValueError("cannot shrink below one bucket")
        if self._buckets == self._m and self._m % 2 != 0:
            self._buckets -= 1
            self._m = self._buckets
            return -1
        if self._buckets == self._m:
            # undo a completed level before unsplitting
            self._m //= 2
        self._buckets -= 1
        return self._buckets - self._m

    def resize_to(self, buckets: int) -> None:
        """Grow/shrink one step at a time until ``b == buckets``."""
        if buckets <= 0:
            raise ConfigError(f"bucket count must be positive, got {buckets}")
        while self._buckets < buckets:
            self.grow()
        while self._buckets > buckets:
            self.shrink()

    def remapped_fraction(self, sample_hashes: list[int]) -> float:
        """Fraction of *sample_hashes* whose bucket changes if we grew
        by one (diagnostic used by tests and the ablation bench)."""
        if not sample_hashes:
            return 0.0
        before = [self.bucket_of(h) for h in sample_hashes]
        clone = IncrementalHash(self._initial_m)
        clone._m = self._m
        clone._buckets = self._buckets
        clone.grow()
        after = [clone.bucket_of(h) for h in sample_hashes]
        return sum(1 for b, a in zip(before, after) if b != a) / len(sample_hashes)
