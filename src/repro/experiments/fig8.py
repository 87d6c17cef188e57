"""Fig. 8 — effectiveness of the Aggressive Flow Detector.

Three panels, all trace-driven (no queueing simulation — the AFD is
evaluated standalone against offline ground truth, as in Sec. V-B):

* (a) false-positive ratio of a 16-entry AFC as the annex size varies
  (64..1024).  Auckland-like traces reach 0 FPR by 512 entries; the
  CAIDA-like ones keep a couple of boundary confusions whose culprits
  sit just outside the top-16 (the paper notes they "fall into the
  top-20");
* (b) accuracy when the AFC is inspected every N packets (annex fixed
  at 512) — the detector must be accurate *whenever* the balancer
  peeks, not just at the end;
* (c) FPR under packet sampling with probability p — sampling acts as
  a pre-filter and *helps* until roughly 1/1k, then hurts the
  many-elephants CAIDA-like traces.

An extra panel compares the two-level AFD against Lu et al.'s
single-cache ElephantTrap (the paper's Sec. VI argument for the annex).
"""

from __future__ import annotations

from repro.core.afd import AFDConfig, AggressiveFlowDetector
from repro.experiments.runner import ExperimentResult
from repro.schedulers.elephant_trap import ElephantTrap
from repro.trace.analysis import top_k_flows
from repro.trace.trace import Trace
from repro.workloads.traces import resolve_trace

__all__ = [
    "feed",
    "run_annex_sweep",
    "run_window_accuracy",
    "run_sampling",
    "run_single_vs_two_level",
    "run",
    "DEFAULT_TRACES",
]

DEFAULT_TRACES = ("caida-1", "caida-2", "auck-1", "auck-2")
ANNEX_SIZES = (64, 128, 256, 512, 1024)
SAMPLE_PROBS = (1.0, 0.1, 0.01, 1e-3, 1e-4)


def feed(detector, trace: Trace) -> None:
    """Run every packet of *trace* through a detector's ``observe``."""
    observe = detector.observe
    for fid in trace.flow_id:
        observe(int(fid))


def _truth(trace: Trace, k: int = 16) -> set[int]:
    """Offline ground truth: top-k flows by *bytes* (the paper's "flow
    size"), while the AFD itself observes packet hits — the same
    mismatch the hardware faces."""
    return set(top_k_flows(trace, k, by="bytes"))


def run_annex_sweep(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
    annex_sizes: tuple[int, ...] = ANNEX_SIZES,
    afc_entries: int = 16,
    promote_threshold: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 8(a): FPR of the 16-entry AFC vs annex size."""
    num_packets = 30_000 if quick else None
    result = ExperimentResult(
        "Fig. 8a - AFC false-positive ratio vs annex size",
        columns=["trace", "annex_entries", "fpr", "accuracy", "fpr_vs_top20"],
        meta={
            "quick": quick, "afc_entries": afc_entries,
            "promote_threshold": promote_threshold,
        },
    )
    for name in traces:
        trace = resolve_trace(name, num_packets)
        truth = _truth(trace, afc_entries)
        truth20 = _truth(trace, 20)
        for annex in annex_sizes:
            afd = AggressiveFlowDetector(
                AFDConfig(
                    afc_entries=afc_entries,
                    annex_entries=annex,
                    promote_threshold=promote_threshold,
                ),
                rng=seed,
            )
            feed(afd, trace)
            fpr = afd.false_positive_ratio(truth)
            result.add(
                trace=name, annex_entries=annex,
                fpr=round(fpr, 4), accuracy=round(1 - fpr, 4),
                # the paper notes its Caida false positives "fall into
                # the top-20"; this column checks the same property
                fpr_vs_top20=round(afd.false_positive_ratio(truth20), 4),
            )
    return result


def run_window_accuracy(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
    intervals: tuple[int, ...] = (1_000, 5_000, 10_000, 25_000, 50_000),
    annex_entries: int = 512,
    afc_entries: int = 16,
    promote_threshold: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 8(b): mean AFC accuracy when checked every N packets.

    At each checkpoint the AFC contents are scored against the offline
    top-16 *of the trace so far* (the balancer cares about currently
    aggressive flows).
    """
    num_packets = 30_000 if quick else None
    result = ExperimentResult(
        "Fig. 8b - AFC accuracy vs check interval (annex=512)",
        columns=["trace", "interval", "mean_accuracy", "min_accuracy", "checks"],
        meta={"quick": quick, "annex_entries": annex_entries},
    )
    import numpy as np

    for name in traces:
        trace = resolve_trace(name, num_packets)
        for interval in intervals:
            if interval >= trace.num_packets:
                continue
            afd = AggressiveFlowDetector(
                AFDConfig(
                    afc_entries=afc_entries,
                    annex_entries=annex_entries,
                    promote_threshold=promote_threshold,
                ),
                rng=seed,
            )
            accs: list[float] = []
            counts = np.zeros(trace.num_flows, dtype=np.int64)
            sizes = trace.size_bytes
            next_check = interval
            for i, fid in enumerate(trace.flow_id, start=1):
                f = int(fid)
                afd.observe(f)
                counts[f] += int(sizes[i - 1])
                if i == next_check:
                    order = np.argsort(-counts, kind="stable")
                    k = min(afc_entries, int((counts > 0).sum()))
                    truth = {int(x) for x in order[:k]}
                    accs.append(afd.accuracy(truth))
                    next_check += interval
            if accs:
                result.add(
                    trace=name, interval=interval,
                    mean_accuracy=round(sum(accs) / len(accs), 4),
                    min_accuracy=round(min(accs), 4),
                    checks=len(accs),
                )
    return result


def run_sampling(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
    probs: tuple[float, ...] = SAMPLE_PROBS,
    annex_entries: int = 512,
    afc_entries: int = 16,
    promote_threshold: int = 8,
    seed: int = 0,
) -> ExperimentResult:
    """Fig. 8(c): FPR when each packet consults the AFD with prob. p.

    Thresholds scale with p is *not* applied — the paper keeps the
    detector identical and only thins its input, which is why very
    aggressive sampling eventually starves promotion.
    """
    num_packets = 30_000 if quick else None
    result = ExperimentResult(
        "Fig. 8c - AFC false-positive ratio vs sampling probability",
        columns=["trace", "sample_prob", "fpr", "sampled_packets"],
        meta={"quick": quick, "annex_entries": annex_entries},
    )
    for name in traces:
        trace = resolve_trace(name, num_packets)
        truth = _truth(trace, afc_entries)
        for p in probs:
            afd = AggressiveFlowDetector(
                AFDConfig(
                    afc_entries=afc_entries,
                    annex_entries=annex_entries,
                    promote_threshold=promote_threshold,
                    sample_prob=p,
                ),
                rng=seed,
            )
            feed(afd, trace)
            result.add(
                trace=name, sample_prob=p,
                fpr=round(afd.false_positive_ratio(truth), 4),
                sampled_packets=afd.sampled,
            )
    return result


def run_single_vs_two_level(
    traces: tuple[str, ...] = DEFAULT_TRACES,
    *,
    quick: bool = False,
    entries: int = 16,
    annex_entries: int = 512,
    seed: int = 0,
) -> ExperimentResult:
    """Ablation: two-level AFD vs a single-cache ElephantTrap of the
    same AFC size (the paper's Sec. VI claim that one cache suffers
    many mice-induced false positives)."""
    num_packets = 30_000 if quick else None
    result = ExperimentResult(
        "Fig. 8 (ablation) - two-level AFD vs single-cache detector",
        columns=["trace", "detector", "fpr"],
        meta={"quick": quick, "afc_entries": entries},
    )
    for name in traces:
        trace = resolve_trace(name, num_packets)
        truth = _truth(trace, entries)
        afd = AggressiveFlowDetector(
            AFDConfig(afc_entries=entries, annex_entries=annex_entries),
            rng=seed,
        )
        feed(afd, trace)
        result.add(trace=name, detector="afd-two-level",
                   fpr=round(afd.false_positive_ratio(truth), 4))
        trap = ElephantTrap(entries=entries, rng=seed)
        feed(trap, trace)
        result.add(trace=name, detector="single-lfu",
                   fpr=round(trap.false_positive_ratio(truth), 4))
        trap_p = ElephantTrap(entries=entries, admit_prob=0.1, rng=seed)
        feed(trap_p, trace)
        result.add(trace=name, detector="single-lfu-p0.1",
                   fpr=round(trap_p.false_positive_ratio(truth), 4))
    return result


def run(quick: bool = False) -> list[ExperimentResult]:
    """All Fig. 8 panels."""
    return [
        run_annex_sweep(quick=quick),
        run_window_accuracy(quick=quick),
        run_sampling(quick=quick),
        run_single_vs_two_level(quick=quick),
    ]
