"""Hash-quality analysis: does the hash balance flow bundles well?

The paper picks CRC16 because Cao et al. [8] showed it balances IP
headers well.  This module quantifies that on any flow population so
the claim is checkable against alternatives (Toeplitz/RSS, or a
deliberately bad hash):

* :func:`bucket_loads` — per-bucket weighted load for a key set;
* :func:`chi_square_statistic` / :func:`chi_square_pvalue` — uniformity
  of the *unweighted* key->bucket mapping (the classic hash test);
* :func:`load_imbalance` — max/mean of the *weighted* load, which is
  what the scheduler actually suffers: even a perfectly uniform hash
  leaves weighted imbalance when flow sizes are skewed — the paper's
  core motivation, made measurable.

scipy is imported inside :func:`chi_square_pvalue`, its only user: no
simulation calls it, and importing ``scipy.stats`` at module level
costs every ``import repro`` (and every spawned worker) most of a
second.
"""

from __future__ import annotations

import numpy as np

from repro.util.stats import jain_fairness

__all__ = [
    "bucket_loads",
    "chi_square_statistic",
    "chi_square_pvalue",
    "load_imbalance",
    "hash_quality_report",
]


def bucket_loads(
    hashes: np.ndarray,
    num_buckets: int,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Total (optionally weighted) load per bucket for hashed keys."""
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    hashes = np.asarray(hashes, dtype=np.int64)
    buckets = hashes % num_buckets
    if weights is None:
        return np.bincount(buckets, minlength=num_buckets).astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != hashes.shape:
        raise ValueError("weights must parallel hashes")
    return np.bincount(buckets, weights=weights, minlength=num_buckets)


def chi_square_statistic(hashes: np.ndarray, num_buckets: int) -> float:
    """Pearson chi-square of key counts against the uniform law."""
    counts = bucket_loads(hashes, num_buckets)
    n = counts.sum()
    if n == 0:
        raise ValueError("no keys")
    expected = n / num_buckets
    return float(((counts - expected) ** 2 / expected).sum())


def chi_square_pvalue(hashes: np.ndarray, num_buckets: int) -> float:
    """p-value of the uniformity test (high = indistinguishable from
    uniform; a good hash on random keys should NOT reject).

    Needs at least two buckets: with one, the test has zero degrees of
    freedom and no p-value.
    """
    if num_buckets < 2:
        raise ValueError(
            f"chi-square test needs at least 2 buckets, got {num_buckets}"
        )
    from scipy import stats

    stat = chi_square_statistic(hashes, num_buckets)
    return float(stats.chi2.sf(stat, df=num_buckets - 1))


def load_imbalance(
    hashes: np.ndarray,
    num_buckets: int,
    weights: np.ndarray | None = None,
) -> float:
    """``max bucket load / mean bucket load`` (1.0 = perfect)."""
    loads = bucket_loads(hashes, num_buckets, weights)
    mean = loads.mean()
    if mean == 0:
        raise ValueError("no load")
    return float(loads.max() / mean)


def hash_quality_report(
    hashes: np.ndarray,
    num_buckets: int,
    weights: np.ndarray | None = None,
) -> dict[str, float]:
    """The full fingerprint: chi-square p-value (key uniformity),
    weighted max/mean imbalance, and Jain fairness of the load."""
    return {
        "chi2_pvalue": chi_square_pvalue(hashes, num_buckets),
        "weighted_imbalance": load_imbalance(hashes, num_buckets, weights),
        "jain_fairness": jain_fairness(
            bucket_loads(hashes, num_buckets, weights)
        ),
    }
