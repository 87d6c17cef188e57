"""CDF-driven trace generation and the unified trace-preset resolver.

:func:`generate_cdf_trace` turns a :class:`~repro.workloads.sizes.
SizeDistribution` into a header :class:`~repro.trace.trace.Trace`: flow
*sizes* are drawn from the CDF, converted to MTU packet trains, and the
trains are interleaved on a virtual timeline so roughly ``concurrency``
flows are in flight at once — the packet-level picture a core actually
sees under websearch/datamining/cache traffic, as opposed to the
synthetic elephants-and-mice i.i.d. draw.

Presets (``websearch-1..4``, ``datamining-1..4``, ``cachemice-1..4``)
mirror the synthetic ``caida-*``/``auck-*`` naming, each seeded from
its name via the same CRC32 derivation, so any harness can name any of
them interchangeably.  :func:`resolve_trace` is the single lookup used
by the sim CLI, the experiment runners, the faults harness and the
tournament: CDF presets first, then the synthetic presets, then
``.npz`` paths.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.trace.models import FlowPopulation
from repro.trace.synthetic import PRESETS as SYNTHETIC_PRESETS
from repro.trace.synthetic import _preset_seed, preset_trace
from repro.trace.trace import Trace
from repro.util.rng import make_rng
from repro.workloads.sizes import SIZE_DISTRIBUTIONS, SizeDistribution

__all__ = [
    "CDFTraceConfig",
    "generate_cdf_trace",
    "CDF_TRACE_PRESETS",
    "cdf_preset_trace",
    "resolve_trace",
    "trace_preset_names",
]


@dataclass(frozen=True)
class CDFTraceConfig:
    """Parameters for one CDF-driven trace.

    Attributes
    ----------
    num_packets:
        Trace length in packets (flow draws are trimmed to hit this
        exactly).
    distribution:
        A :class:`SizeDistribution` or the name of a bundled one.
    mtu:
        Wire MTU; flows are cut into ``ceil(size / mtu)`` packets, the
        last one carrying the remainder.
    concurrency:
        Approximate number of flows in flight at once: each flow's
        packets are spread over ``concurrency`` virtual slots per
        packet, so trains interleave rather than run back to back.
    max_flow_packets / max_flow_fraction:
        Caps on a single flow's packet train — absolute and as a
        fraction of ``num_packets`` (the effective cap is the smaller).
        The fractional cap keeps one datamining/cache monster from
        swallowing a short trace regardless of how far a preset is
        scaled down.
    mean_rate_pps:
        Mean native arrival rate for the gap column (the simulator's
        rate models re-pace headers anyway).
    seed:
        Base RNG seed (presets derive it from their name).
    """

    num_packets: int
    distribution: str | SizeDistribution = "websearch"
    mtu: int = 1500
    concurrency: int = 64
    max_flow_packets: int | None = None
    max_flow_fraction: float = 0.05
    mean_rate_pps: float = 1e6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_packets <= 0:
            raise ConfigError(f"num_packets must be positive, got {self.num_packets}")
        if self.mtu <= 0:
            raise ConfigError(f"mtu must be positive, got {self.mtu}")
        if self.concurrency < 1:
            raise ConfigError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.max_flow_packets is not None and self.max_flow_packets < 1:
            raise ConfigError(
                f"max_flow_packets must be >= 1, got {self.max_flow_packets}"
            )
        if not 0.0 < self.max_flow_fraction <= 1.0:
            raise ConfigError(
                f"max_flow_fraction must be in (0, 1], got {self.max_flow_fraction}"
            )
        if self.mean_rate_pps <= 0:
            raise ConfigError(f"mean_rate_pps must be positive, got {self.mean_rate_pps}")

    def resolve_distribution(self) -> SizeDistribution:
        if isinstance(self.distribution, SizeDistribution):
            return self.distribution
        try:
            return SIZE_DISTRIBUTIONS[self.distribution]
        except KeyError:
            raise ConfigError(
                f"unknown size distribution {self.distribution!r}: "
                f"available {sorted(SIZE_DISTRIBUTIONS)}"
            ) from None


_DRAW_BATCH = 4096  # fixed so the rng draw sequence is length-independent


def generate_cdf_trace(config: CDFTraceConfig, name: str = "") -> Trace:
    """Generate a trace whose flow sizes follow the configured CDF.

    Flow sizes are drawn in fixed-size batches until the packet budget
    is covered (the batch size is constant, so the draw sequence — and
    therefore the trace — depends only on the config, not on how many
    batches were needed).  Each flow becomes an MTU packet train; trains
    are placed on a jittered virtual timeline and globally argsorted
    (stable) into the final packet order.
    """
    dist = config.resolve_distribution()
    rng = make_rng(config.seed)
    n = config.num_packets
    cap = max(1, int(config.max_flow_fraction * n))
    if config.max_flow_packets is not None:
        cap = min(cap, config.max_flow_packets)

    # 1. draw flows until their packet trains cover the budget
    sizes_parts: list[np.ndarray] = []
    covered = 0
    while covered < n:
        batch = dist.sample_bytes(_DRAW_BATCH, rng)
        pkts = np.minimum(cap, np.maximum(1, -(-batch // config.mtu)))
        sizes_parts.append(batch)
        covered += int(pkts.sum())
    flow_bytes = np.concatenate(sizes_parts)
    flow_pkts = np.minimum(cap, np.maximum(1, -(-flow_bytes // config.mtu)))

    # trim to exactly n packets: keep whole flows while they fit, then
    # truncate one flow's train to fill the remainder
    cum = np.cumsum(flow_pkts)
    num_full = int(np.searchsorted(cum, n, side="right"))
    if num_full < flow_pkts.shape[0]:
        flow_pkts = flow_pkts[: num_full + 1].copy()
        flow_bytes = flow_bytes[: num_full + 1].copy()
        prior = int(cum[num_full - 1]) if num_full else 0
        flow_pkts[num_full] = n - prior
        if flow_pkts[num_full] == 0:
            flow_pkts = flow_pkts[:num_full]
            flow_bytes = flow_bytes[:num_full]
    num_flows = flow_pkts.shape[0]

    # 2. per-packet wire sizes: MTU for every packet but the last of
    # each train, which carries the remainder (clamped to [64, mtu])
    fids = np.repeat(np.arange(num_flows, dtype=np.int64), flow_pkts)
    ends = np.cumsum(flow_pkts)
    within = np.arange(n, dtype=np.int64) - np.repeat(ends - flow_pkts, flow_pkts)
    is_last = within == np.repeat(flow_pkts - 1, flow_pkts)
    remainder = flow_bytes - (flow_pkts - 1) * config.mtu
    remainder = np.clip(remainder, 64, config.mtu)
    sizes = np.where(is_last, remainder[fids], config.mtu).astype(np.int32)

    # 3. interleave: flow f starts at a uniform virtual slot; its k-th
    # packet lands ~k*concurrency slots later with per-packet jitter
    virtual_span = float(max(n, 1))
    starts = rng.random(num_flows) * virtual_span
    jitter = rng.random(n)
    pos = starts[fids] + (within + jitter) * config.concurrency
    order = np.argsort(pos, kind="stable")
    fids = fids[order]
    sizes = sizes[order]

    # 4. native gaps + flow table (weights = packet share, so top-k by
    # rate matches the heaviest trains)
    gaps = np.maximum(
        rng.exponential(1e9 / config.mean_rate_pps, size=n), 0.0
    ).astype(np.int64)
    weights = flow_pkts.astype(np.float64) / float(flow_pkts.sum())
    pop = FlowPopulation.sample(num_flows, 0.0, rng, weights=weights)

    return Trace(
        fids, sizes, gaps,
        pop.src_ip, pop.dst_ip, pop.src_port, pop.dst_port, pop.proto,
        name=name,
    )


def _cdf_presets() -> dict[str, CDFTraceConfig]:
    presets: dict[str, CDFTraceConfig] = {}
    base = {
        # websearch: tens-of-KB trains, moderate interleave
        "websearch": CDFTraceConfig(
            num_packets=200_000, distribution="websearch", concurrency=48,
        ),
        # datamining: a mice swarm punctuated by huge trains; cap the
        # monsters so one flow cannot be half the trace
        "datamining": CDFTraceConfig(
            num_packets=200_000, distribution="datamining", concurrency=96,
            max_flow_packets=20_000,
        ),
        # cache-vs-mice: bimodal stress — many tiny requests vs. a few
        # bulk cache fills
        "cachemice": CDFTraceConfig(
            num_packets=200_000, distribution="cache-mice", concurrency=32,
            max_flow_packets=8_000,
        ),
    }
    for stem, cfg in base.items():
        for i in range(1, 5):
            name = f"{stem}-{i}"
            presets[name] = replace(cfg, seed=_preset_seed(name))
    return presets


#: Named CDF trace presets (``websearch-1..4``, ``datamining-1..4``,
#: ``cachemice-1..4``), each seeded from its name like the synthetic
#: presets.
CDF_TRACE_PRESETS: dict[str, CDFTraceConfig] = _cdf_presets()


def cdf_preset_trace(
    name: str, num_packets: int | None = None, **overrides
) -> Trace:
    """Build a named CDF preset trace (optionally resized)."""
    try:
        config = CDF_TRACE_PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown CDF trace preset {name!r}: available "
            f"{sorted(CDF_TRACE_PRESETS)}"
        ) from None
    if num_packets is not None:
        overrides["num_packets"] = num_packets
    if overrides:
        config = replace(config, **overrides)
    return generate_cdf_trace(config, name=name)


def trace_preset_names() -> list[str]:
    """Every named trace preset (synthetic + CDF), sorted."""
    return sorted([*SYNTHETIC_PRESETS, *CDF_TRACE_PRESETS])


#: preset traces one process keeps built (fig7 uses 14 distinct ones)
_PRESET_CACHE_ENTRIES = 16


@lru_cache(maxsize=_PRESET_CACHE_ENTRIES)
def _built_preset(name: str, num_packets: int | None) -> Trace:
    """One preset trace, built on first request and shared read-only.

    A preset trace is a pure function of its name and length (the seed
    comes from the name), yet the harnesses ask for the same ones over
    and over: every fault schedule of a tournament rebuilds the same
    trace group, and fig7's T5-T8 reuse G1-G3's traces.  The columns
    are made read-only, so a caller that writes into a shared trace
    fails loudly instead of changing every later run.
    """
    if name in CDF_TRACE_PRESETS:
        trace = cdf_preset_trace(name, num_packets=num_packets)
    else:
        trace = preset_trace(name, num_packets=num_packets)
    trace.make_read_only()
    return trace


def resolve_trace(name: str, num_packets: int | None = None) -> Trace:
    """Resolve a trace by preset name (CDF or synthetic) or ``.npz`` path.

    The single lookup shared by the sim CLI, experiment runners, faults
    harness and tournament, so every harness accepts every preset.

    A preset is built once per process for each *num_packets* (the
    most recently used 16 stay) and every caller gets the same
    :class:`Trace`, whose columns are read-only: copy a column before
    writing to it.  An ``.npz`` path is read afresh on every call.
    """
    if name in CDF_TRACE_PRESETS or name in SYNTHETIC_PRESETS:
        return _built_preset(name, num_packets)
    path = Path(name)
    if path.suffix in (".npz",) and path.exists():
        trace = Trace.load_npz(path)
        return trace.head(num_packets) if num_packets is not None else trace
    raise ConfigError(
        f"unknown trace {name!r}: not a preset "
        f"({', '.join(trace_preset_names())}) and not an existing .npz path"
    )
