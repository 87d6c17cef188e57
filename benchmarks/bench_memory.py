"""Peak-RSS benchmark of the streaming workload pipeline.

The point of :class:`repro.sim.source.StreamingSource` is bounded
memory: a streamed run holds O(chunk) packets resident while a
materialized run holds all six per-packet columns (~40 bytes/packet)
for the whole workload.  Each measurement runs one simulation in a
fresh subprocess and reads ``ru_maxrss`` (a process-lifetime
high-watermark, hence the subprocess per point) — the assertions are
relational, not absolute timings.  The watermark is read from
``/proc/self/status`` ``VmHWM`` rather than ``ru_maxrss``: the rusage
figure is polluted by fork inheritance (the pre-exec copy of the
parent's resident set counts toward the child's maximum, so a large
pytest parent would floor every measurement), while ``VmHWM`` tracks
only the post-exec address space.  ``ru_maxrss`` remains the fallback
where ``/proc`` is unavailable.  Assertions:

* streamed peak RSS stays (near) flat as the packet count scales;
* materialized peak RSS grows with the packet count;
* at the large size, streamed stays below materialized and below a
  generous fixed ceiling over the interpreter baseline;
* the span drain (the default path) bounds its working set: a streamed
  run peaks within a few MiB of its ``vectorized=False`` scalar-oracle
  twin;
* latency samples are kept as int64 chunks: at the large size,
  ``collect_latencies=True`` adds at most ``_LATENCY_B_PER_SAMPLE``
  bytes per departed packet to a streamed run's peak.

The same harness covers pcap replay:
:class:`repro.workloads.replay.PcapReplaySource` re-streams the capture
file pass by pass, so peak RSS must stay flat as ``repeat`` scales the
replayed packet count (the multi-GB-capture story: memory is O(chunk +
flows), never O(capture)), while ``materialize()`` of the same source
grows with it.

``REPRO_BENCH_QUICK=1`` shrinks the packet counts (CI's bench-smoke
job); the full run simulates 2M packets per mode.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

_QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
# (small, large) simulated packet targets per mode.  Streamed peak RSS
# still climbs (flow state) up to ~600k packets before it flattens, so
# the quick large size sits past that, where materialized clearly
# exceeds it (~98 vs ~159 MiB at 1M packets on a 2-CPU x86 runner).
_SIZES = (250_000, 1_000_000) if _QUICK else (500_000, 2_000_000)
# (small, large) replayed packet targets (repeat scales the passes)
_REPLAY_SIZES = (50_000, 400_000) if _QUICK else (250_000, 2_000_000)
#: streamed growth allowance small→large, and the fixed headroom over
#: the interpreter baseline a streamed large run must stay within
_FLAT_MB = 48.0
_CEILING_MB = 160.0
#: span-vs-scalar run size and the MiB the span drain may add over its
#: scalar twin.  Small enough that the span working set, not later
#: flow-state growth, sets the high-watermark: the 1 Mi-row span cap
#: this guards against adds ~14 MiB here, the 16 Ki-row cap < 1 MiB.
_SPAN_PACKETS = 200_000
_SPAN_SLACK_MB = 8.0
#: peak-RSS bytes a collected latency sample may cost.  At the quick
#: large size a sample kept in int64 chunks measured ~26 B of peak, one
#: kept as a Python int in a list ~47 B, so a fall-back to per-sample
#: ints fails the bound
_LATENCY_B_PER_SAMPLE = 32

_CHILD = r"""
import sys

def peak_rss_kib():
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

mode, n_packets = sys.argv[1], int(sys.argv[2])
departed = 0
from repro import units
from repro.net.service import Service, ServiceSet
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.source import StreamingSource
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace

if mode.startswith("replay"):
    from repro.workloads.registry import BUNDLED_PCAP
    from repro.workloads.replay import PcapReplaySource

    probe = PcapReplaySource(BUNDLED_PCAP, chunk_size=1)
    repeat = max(1, -(-n_packets // probe.num_packets))
    source = PcapReplaySource(BUNDLED_PCAP, repeat=repeat, speedup=0.25)
    workload = source if mode == "replay-streamed" else source.materialize()
    config = SimConfig(
        num_cores=16,
        services=ServiceSet([Service(0, "ip-forward", units.us(1))]),
        collect_latencies=False,
    )
    report = simulate(workload, StaticHashScheduler(), config)
    assert report.generated == source.num_packets, report.generated
elif mode != "baseline":
    rate = 2e7  # offered pps; 16 us-cores give ~1.6e7 -> mild overload
    duration = max(1, int(round(n_packets / rate * units.SEC)))
    trace = preset_trace("caida-1", num_packets=20_000)
    params = [HoltWintersParams(a=rate)]
    if mode.startswith("streamed"):
        workload = StreamingSource([trace], params, duration, seed=3)
    else:
        workload = build_workload([trace], params, duration_ns=duration,
                                  seed=3)
    config = SimConfig(
        num_cores=16,
        services=ServiceSet([Service(0, "ip-forward", units.us(1))]),
        collect_latencies=mode == "streamed-latencies",
    )
    report = simulate(workload, StaticHashScheduler(), config,
                      vectorized=mode != "streamed-scalar")
    assert report.generated >= n_packets // 2, report.generated
    departed = report.departed
print(peak_rss_kib(), departed)
"""


def _peak_rss_mb(mode: str, n_packets: int = 0) -> float:
    """Peak RSS in MiB of one fresh-subprocess simulation."""
    return _run_child(mode, n_packets)[0]


def _run_child(mode: str, n_packets: int) -> tuple[float, int]:
    """Peak RSS in MiB and packets departed of one fresh-subprocess
    simulation."""
    src_dir = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, mode, str(n_packets)],
        capture_output=True, text=True, env=env, check=True,
    )
    # VmHWM / ru_maxrss are KiB on Linux
    rss_kib, departed = out.stdout.split()[-2:]
    return int(rss_kib) / 1024.0, int(departed)


def test_streamed_rss_stays_flat_while_materialized_grows():
    small, large = _SIZES
    baseline = _peak_rss_mb("baseline")
    streamed = {n: _peak_rss_mb("streamed", n) for n in (small, large)}
    materialized = {n: _peak_rss_mb("materialized", n) for n in (small, large)}
    print(
        f"\n[rss MiB] baseline={baseline:.1f}  "
        f"streamed {small}={streamed[small]:.1f} "
        f"{large}={streamed[large]:.1f}  "
        f"materialized {small}={materialized[small]:.1f} "
        f"{large}={materialized[large]:.1f}"
    )

    # streamed memory is bounded: scaling the workload 4x barely moves it
    assert streamed[large] - streamed[small] < _FLAT_MB
    # ... and stays under a fixed ceiling over the interpreter baseline
    assert streamed[large] < baseline + _CEILING_MB

    # materialized memory scales with the packet count (6 columns *
    # ~40 B/packet, plus build-time intermediates)
    expected_growth_mb = (large - small) * 40 / (1024 * 1024)
    assert materialized[large] - materialized[small] > expected_growth_mb / 2

    # at the large size the streamed run is the cheaper one
    assert streamed[large] < materialized[large]


def test_span_drain_rss_matches_scalar_oracle():
    """The span drain bounds its working set (the 16 Ki-row span cap):
    a streamed hash-static run on the default path peaks at most
    ``_SPAN_SLACK_MB`` above the same run on the scalar oracle."""
    n = _SPAN_PACKETS
    span = _peak_rss_mb("streamed", n)
    scalar = _peak_rss_mb("streamed-scalar", n)
    print(f"\n[rss MiB] streamed {n}: span={span:.1f}  scalar={scalar:.1f}")
    assert span - scalar <= _SPAN_SLACK_MB


def test_latency_samples_cost_int64_not_python_ints():
    """Latency samples stay int64 from the booking to the summary: at
    the large size, collecting them adds at most
    ``_LATENCY_B_PER_SAMPLE`` bytes per departed packet to a streamed
    run's peak RSS."""
    n = _SIZES[1]
    off = _peak_rss_mb("streamed", n)
    on, departed = _run_child("streamed-latencies", n)
    per_sample = (on - off) * 1024 * 1024 / departed
    print(
        f"\n[rss MiB] streamed {n}: latencies off={off:.1f} on={on:.1f} "
        f"({departed} departed, {per_sample:.1f} B each)"
    )
    assert on - off <= _LATENCY_B_PER_SAMPLE * departed / (1024 * 1024)


def test_replay_rss_stays_flat_as_repeat_scales():
    """Pcap replay is O(chunk + flows): repeating the capture 8x must
    not move the streamed high-watermark, while materializing the same
    source grows with the replayed packet count."""
    small, large = _REPLAY_SIZES
    baseline = _peak_rss_mb("baseline")
    streamed = {n: _peak_rss_mb("replay-streamed", n) for n in (small, large)}
    materialized = {n: _peak_rss_mb("replay-materialized", n)
                    for n in (small, large)}
    print(
        f"\n[rss MiB] baseline={baseline:.1f}  "
        f"replay-streamed {small}={streamed[small]:.1f} "
        f"{large}={streamed[large]:.1f}  "
        f"replay-materialized {small}={materialized[small]:.1f} "
        f"{large}={materialized[large]:.1f}"
    )

    # streamed replay stays flat as repeat scales the packet count 8x
    assert streamed[large] - streamed[small] < _FLAT_MB
    assert streamed[large] < baseline + _CEILING_MB

    # materializing the replay scales with the packet count
    expected_growth_mb = (large - small) * 40 / (1024 * 1024)
    assert materialized[large] - materialized[small] > expected_growth_mb / 2

    assert streamed[large] < materialized[large]
