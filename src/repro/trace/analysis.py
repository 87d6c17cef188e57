"""Offline trace analysis: flow sizes, rank-size curves, exact top-k.

This is the "off-line analysis" of the paper (Sec. V-B): the ground
truth against which the AFD's contents are scored.  A flow found in the
AFC that is *not* in the offline top-16 is a false positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.trace.trace import Trace
from repro.util.stats import gini

__all__ = [
    "flow_sizes",
    "rank_size",
    "top_k_flows",
    "windowed_top_k",
    "concentration",
    "RankSize",
]


def flow_sizes(trace: Trace, by: str = "bytes") -> np.ndarray:
    """Per-flow totals indexed by flow id.

    ``by`` selects bytes (Fig. 2's metric) or packet counts.  Flows in
    the table that never appear in the packet stream get 0.
    """
    if by == "bytes":
        weights = trace.size_bytes.astype(np.int64)
    elif by == "packets":
        weights = None
    else:
        raise ConfigError(f"by must be 'bytes' or 'packets', got {by!r}")
    return np.bincount(trace.flow_id, weights=weights, minlength=trace.num_flows).astype(
        np.int64
    )


@dataclass(frozen=True)
class RankSize:
    """A rank-size curve: ``sizes[r-1]`` is the size of the rank-*r* flow."""

    sizes: np.ndarray
    by: str

    @property
    def num_flows(self) -> int:
        return int(self.sizes.shape[0])

    def share_of_top(self, k: int) -> float:
        """Fraction of total volume carried by the top-*k* flows."""
        total = float(self.sizes.sum())
        if total == 0:
            return 0.0
        return float(self.sizes[:k].sum()) / total


def rank_size(trace: Trace, by: str = "bytes", drop_zero: bool = True) -> RankSize:
    """The Fig. 2 curve: flow sizes sorted descending (rank 1 first)."""
    sizes = np.sort(flow_sizes(trace, by=by))[::-1]
    if drop_zero:
        sizes = sizes[sizes > 0]
    return RankSize(sizes=sizes, by=by)


def top_k_flows(trace: Trace, k: int, by: str = "bytes") -> list[int]:
    """Flow ids of the *k* largest flows, ties broken by lower id.

    This is the offline ground truth for AFD accuracy (Fig. 8).
    """
    if k < 0:
        raise ConfigError(f"k must be >= 0, got {k}")
    sizes = flow_sizes(trace, by=by)
    k = min(k, int((sizes > 0).sum()))
    if k == 0:
        return []
    # stable sort on (-size, id): argsort of -sizes is stable w.r.t. id order
    order = np.argsort(-sizes, kind="stable")
    return [int(i) for i in order[:k]]


def windowed_top_k(
    trace: Trace, k: int, window: int, by: str = "bytes"
) -> list[tuple[int, list[int]]]:
    """Top-*k* flows per consecutive *window*-packet slice.

    Returns ``[(end_index, top_ids), ...]`` — used by the Fig. 8(b)
    experiment, where the AFC is scored at fixed packet intervals
    against the recently active elephants.
    """
    if window <= 0:
        raise ConfigError(f"window must be positive, got {window}")
    out: list[tuple[int, list[int]]] = []
    n = trace.num_packets
    for start in range(0, n, window):
        end = min(start + window, n)
        fid = trace.flow_id[start:end]
        if by == "bytes":
            sizes = np.bincount(
                fid, weights=trace.size_bytes[start:end].astype(np.int64),
                minlength=trace.num_flows,
            )
        else:
            sizes = np.bincount(fid, minlength=trace.num_flows)
        kk = min(k, int((sizes > 0).sum()))
        order = np.argsort(-sizes, kind="stable")
        out.append((end, [int(i) for i in order[:kk]]))
    return out


def concentration(trace: Trace, by: str = "bytes") -> dict[str, float]:
    """Skew summary of a trace: gini, top-k shares, active flow count.

    A quick fingerprint used by tests to check the synthetic presets
    actually exhibit the heavy tail the paper's motivation needs.
    """
    curve = rank_size(trace, by=by)
    if curve.num_flows == 0:
        return {"active_flows": 0.0, "gini": 0.0, "top1_share": 0.0,
                "top10_share": 0.0, "top16_share": 0.0, "top100_share": 0.0}
    return {
        "active_flows": float(curve.num_flows),
        "gini": gini(curve.sizes),
        "top1_share": curve.share_of_top(1),
        "top10_share": curve.share_of_top(10),
        "top16_share": curve.share_of_top(16),
        "top100_share": curve.share_of_top(100),
    }
