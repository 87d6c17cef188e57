"""Small statistics helpers used by metrics and the experiment harness."""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

__all__ = [
    "jain_fairness",
    "gini",
    "percentile",
    "normalize",
    "ratio_or_nan",
    "summarize",
]


def jain_fairness(loads: Sequence[float]) -> float:
    """Jain's fairness index of a load vector.

    ``(Σx)² / (n · Σx²)`` — equals 1.0 for a perfectly balanced vector and
    ``1/n`` when all load sits on a single element.  An all-zero vector is
    perfectly balanced by convention and returns 1.0.
    """
    x = np.asarray(loads, dtype=np.float64)
    if x.size == 0:
        raise ValueError("fairness of an empty load vector is undefined")
    if np.any(x < 0):
        raise ValueError("loads must be non-negative")
    denom = x.size * float(np.sum(x * x))
    if denom == 0.0:
        return 1.0
    return float(np.sum(x)) ** 2 / denom


def gini(values: Sequence[float]) -> float:
    """Gini coefficient of a non-negative vector (0 = equal, →1 = skewed).

    Used to characterise flow-size skew in traces (Fig. 2 of the paper).
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    if x.size == 0:
        raise ValueError("gini of an empty vector is undefined")
    if np.any(x < 0):
        raise ValueError("values must be non-negative")
    total = float(x.sum())
    if total == 0.0:
        return 0.0
    n = x.size
    # Standard rank formulation: G = (2 Σ i·x_i) / (n Σ x) − (n+1)/n
    ranks = np.arange(1, n + 1, dtype=np.float64)
    return float(2.0 * np.dot(ranks, x) / (n * total) - (n + 1) / n)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) of *values* (linear interpolation)."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("percentile of an empty vector is undefined")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    return float(np.percentile(x, q))


def normalize(values: Sequence[float]) -> np.ndarray:
    """Scale a non-negative vector to sum to 1.0 (uniform if all-zero)."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot normalize an empty vector")
    if np.any(x < 0):
        raise ValueError("values must be non-negative")
    total = float(x.sum())
    if total == 0.0:
        return np.full(x.size, 1.0 / x.size)
    return x / total


def ratio_or_nan(numerator: float, denominator: float) -> float:
    """``numerator / denominator`` with NaN (not an error) for a 0 denominator.

    Experiment harnesses report many "relative to baseline" columns; a
    baseline that never triggered the event yields NaN, which the table
    formatter renders as ``--``.
    """
    if denominator == 0:
        return math.nan
    return numerator / denominator


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Mean / min / max / p50 / p95 / p99 summary of a vector.

    The three percentiles come from one ``np.percentile`` call (one
    partition of the vector), bit-equal to three single-quantile calls.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("summary of an empty vector is undefined")
    p50, p95, p99 = np.percentile(x, (50, 95, 99)).tolist()
    return {
        "mean": float(x.mean()),
        "min": float(x.min()),
        "max": float(x.max()),
        "p50": p50,
        "p95": p95,
        "p99": p99,
    }
