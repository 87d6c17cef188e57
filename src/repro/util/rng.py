"""Deterministic random-number plumbing.

Every stochastic component in the package accepts either a seed or a
:class:`numpy.random.Generator`.  These helpers normalise that choice and
derive independent child streams so that, e.g., the packet generator for
each service consumes its own stream and results do not depend on the
order in which services are polled.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

__all__ = ["make_rng", "spawn_rngs"]

SeedLike = "int | np.random.Generator | np.random.SeedSequence | None"


def _check_seed(seed) -> None:
    """Reject a negative integer seed up front: numpy's own message
    (``expected non-negative integer``) names neither the seed nor its
    value."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")


def make_rng(seed: int | np.random.Generator | np.random.SeedSequence | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from any seed-like value.

    Passing an existing generator returns it unchanged, so components can
    share a stream when the caller wants them to.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    _check_seed(seed)
    return np.random.default_rng(seed)


def spawn_rngs(
    seed: int | np.random.Generator | np.random.SeedSequence | None,
    n: int,
) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators.

    Children are derived via :class:`numpy.random.SeedSequence` spawning,
    which guarantees non-overlapping streams.  When *seed* is already a
    ``Generator`` its own ``spawn`` method is used so the parent stream
    advances deterministically.
    """
    if n < 0:
        raise ValueError(f"cannot spawn a negative number of streams: {n}")
    if isinstance(seed, np.random.Generator):
        return list(seed.spawn(n))
    if isinstance(seed, np.random.SeedSequence):
        return [np.random.default_rng(s) for s in seed.spawn(n)]
    _check_seed(seed)
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
