"""Exact stable orders from unstable, vectorized sorts.

numpy's stable sort is timsort for wide integers: on random int64 keys
it runs several times slower than the default sort, which numpy
dispatches to SIMD kernels (x86-simd-sort, highway) where the CPU has
them, and to its radix sort for 8- and 16-bit keys.  A stable order is
a function of the keys alone, so any sort that gets it exactly is
interchangeable with the stable one: :func:`stable_order` packs the keys
into one integer whose last digit is the row index, which makes every
packed key unique and the default sort's order the stable order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stable_order"]

#: packed keys stay below 2**62: clear of int64 overflow in the packing
_MAX_PACKED = 1 << 62

#: key ranges up to this size sort as uint16, by numpy's radix sort
_RADIX_RANGE = 1 << 16


def stable_order(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """``np.lexsort(keys)``: the indices that sort by ``keys[-1]``, then
    ``keys[-2]`` and so on, with ties in index order.

    The integer keys are packed, most significant first, into one
    digit per key (each key's range is its digit's base).  A packed
    range of at most 2**16 sorts by numpy's uint16 radix sort, which is
    stable; a wider one gets the row index as its last digit and one
    default-kind argsort.  When the packed key would reach 2**62 this
    falls back to the call it stands for: ``np.argsort(kind="stable")``
    for one key, ``np.lexsort`` for several.
    """
    n = keys[0].shape[0]
    packed: np.ndarray | None = None
    width = 1
    if n:
        for key in reversed(keys):
            lo = int(key.min())
            base = int(key.max()) - lo + 1
            width *= base
            if width * n > _MAX_PACKED:
                packed = None
                break
            digit = np.subtract(key, lo, dtype=np.int64)
            packed = digit if packed is None else packed * base + digit
    if packed is None:
        if len(keys) == 1:
            return np.argsort(keys[0], kind="stable")
        return np.lexsort(keys)
    if width <= _RADIX_RANGE:
        return np.argsort(packed.astype(np.uint16), kind="stable")
    packed *= n
    packed += np.arange(n, dtype=np.int64)
    return np.argsort(packed)
