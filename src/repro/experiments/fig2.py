"""Fig. 2 — flow-size rank-size distribution of the traces.

The paper plots per-flow size against rank (log-log) for its real
traces to motivate the elephants-and-mice premise.  This harness prints
the same curve for the synthetic presets at logarithmically spaced
ranks, plus the concentration summary (top-k shares, Gini) that
quantifies the skew.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.runner import ExperimentResult
from repro.trace.analysis import concentration, rank_size
from repro.workloads.traces import resolve_trace

__all__ = ["run_rank_size", "run_concentration", "DEFAULT_TRACES"]

DEFAULT_TRACES = ("caida-1", "caida-2", "auck-1", "auck-2")


def _log_ranks(n: int, points: int) -> list[int]:
    """~*points* logarithmically spaced ranks in [1, n]."""
    if n <= 0:
        return []
    ranks = np.unique(
        np.round(np.logspace(0, np.log10(n), points)).astype(int)
    )
    return [int(r) for r in ranks if 1 <= r <= n]


def run_rank_size(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
    points: int = 12,
) -> ExperimentResult:
    """The Fig. 2 series: per-trace flow size at log-spaced ranks."""
    num_packets = 20_000 if quick else None
    result = ExperimentResult(
        "Fig. 2 - flow size vs rank (bytes)",
        columns=["trace", "rank", "size_bytes", "share_cum"],
        meta={"quick": quick, "points_per_trace": points},
    )
    for name in traces:
        trace = resolve_trace(name, num_packets=num_packets)
        curve = rank_size(trace, by="bytes")
        total = float(curve.sizes.sum())
        cum = np.cumsum(curve.sizes)
        for rank in _log_ranks(curve.num_flows, points):
            result.add(
                trace=name,
                rank=rank,
                size_bytes=int(curve.sizes[rank - 1]),
                share_cum=float(cum[rank - 1]) / total if total else 0.0,
            )
    return result


def run_concentration(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
) -> ExperimentResult:
    """Skew fingerprint per trace (supports the Fig. 2 narrative)."""
    num_packets = 20_000 if quick else None
    result = ExperimentResult(
        "Fig. 2 (summary) - trace concentration",
        columns=[
            "trace", "active_flows", "gini",
            "top1_share", "top10_share", "top16_share", "top100_share",
        ],
        meta={"quick": quick},
    )
    for name in traces:
        trace = resolve_trace(name, num_packets=num_packets)
        stats = concentration(trace, by="bytes")
        result.add(trace=name, **{k: round(v, 4) for k, v in stats.items()})
    return result


def run(quick: bool = False) -> list[ExperimentResult]:
    """Everything Fig. 2 related."""
    return [run_rank_size(quick=quick), run_concentration(quick=quick)]
