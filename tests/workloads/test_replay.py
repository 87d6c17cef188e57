"""PcapReplaySource: the source-contract battery.

The oracle for ``repeat=1`` is the materialising path the repo already
trusts: ``native_workload([trace_from_pcap(path)[0]], speedup)``.  The
streamed source must match it column for column, then satisfy
chunk-size-independent fingerprints, clone, streamed == materialized
SimReports (hash-static AND LAPS), and bit-identical mid-chunk
checkpoint/resume.
"""

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError
from repro.hashing.five_tuple import FiveTuple
from repro.net.service import Service, ServiceSet
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.kernel import Checkpoint, SimKernel
from repro.sim.system import simulate
from repro.trace.pcap import trace_from_pcap, write_pcap
from repro.trace.replay import native_workload
from repro.workloads.registry import BUNDLED_PCAP
from repro.workloads.replay import PcapReplaySource

COLUMNS = ("arrival_ns", "service_id", "flow_id", "size_bytes",
           "flow_hash", "seq")


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A small deterministic capture with interleaved repeating flows."""
    rng = np.random.default_rng(42)
    keys = [
        FiveTuple.from_strings(f"10.0.0.{i}", "192.168.1.1", 1000 + i, 80, 6)
        for i in range(1, 9)
    ]
    ts = 0
    packets = []
    for _ in range(400):
        ts += int(rng.exponential(2_000))
        key = keys[int(rng.integers(len(keys)))]
        size = int(rng.choice([64, 576, 1500]))
        packets.append((ts, key, size))
    path = tmp_path_factory.mktemp("pcap") / "cap.pcap.gz"
    write_pcap(path, packets)
    return path


def replay_config(**kw):
    kw.setdefault("num_cores", 4)
    return SimConfig(
        services=ServiceSet([Service(0, "ip-forward", units.us(0.5))]), **kw,
    )


class TestOracleIdentity:
    def test_matches_native_workload(self, capture):
        src = PcapReplaySource(capture, chunk_size=97)
        trace, _ = trace_from_pcap(capture)
        oracle = native_workload([trace])
        mat = src.materialize()
        for col in COLUMNS:
            assert np.array_equal(getattr(mat, col), getattr(oracle, col)), col
        assert src.num_packets == oracle.num_packets
        assert src.num_flows == oracle.num_flows
        assert src.duration_ns == oracle.duration_ns

    def test_matches_oracle_with_speedup(self, capture):
        src = PcapReplaySource(capture, chunk_size=64, speedup=2.5)
        oracle = native_workload([trace_from_pcap(capture)[0]], speedup=2.5)
        mat = src.materialize()
        for col in COLUMNS:
            assert np.array_equal(getattr(mat, col), getattr(oracle, col)), col

    def test_bundled_capture_replays(self):
        src = PcapReplaySource(BUNDLED_PCAP, repeat=4)
        assert src.num_packets == 10_000
        assert src.num_flows == 96
        assert src.counters["total"] >= src.num_packets // 4


class TestContract:
    def test_fingerprint_chunk_size_independent(self, capture):
        fps = {
            PcapReplaySource(capture, chunk_size=cs, repeat=2).fingerprint()
            for cs in (31, 256, None)
        }
        assert len(fps) == 1

    def test_repeat_extends_timeline(self, capture):
        one = PcapReplaySource(capture, chunk_size=128)
        three = PcapReplaySource(capture, chunk_size=128, repeat=3)
        assert three.num_packets == 3 * one.num_packets
        assert three.num_flows == one.num_flows  # same flows, later passes
        mat = three.materialize()
        assert np.all(np.diff(mat.arrival_ns) >= 0)  # monotone across seams
        # per-flow seq keeps counting across passes
        counts = np.bincount(mat.flow_id)
        for fid in range(three.num_flows):
            seqs = mat.seq[mat.flow_id == fid]
            assert np.array_equal(seqs, np.arange(counts[fid]))

    def test_clone_shares_prescan_and_restarts(self, capture):
        src = PcapReplaySource(capture, chunk_size=50)
        first = src.next_chunk()
        clone = src.clone()
        assert clone._meta is src._meta
        again = clone.next_chunk()
        assert np.array_equal(first.arrival_ns, again.arrival_ns)
        assert np.array_equal(first.seq, again.seq)

    def test_validation(self, capture):
        with pytest.raises(ConfigError):
            PcapReplaySource(capture, chunk_size=0)
        with pytest.raises(ConfigError):
            PcapReplaySource(capture, speedup=0.0)
        with pytest.raises(ConfigError):
            PcapReplaySource(capture, repeat=0)
        with pytest.raises(ConfigError):
            PcapReplaySource(capture, wrap_gap_ns=-1)

    def test_empty_capture_rejected(self, tmp_path):
        path = tmp_path / "empty.pcap"
        write_pcap(path, [])
        with pytest.raises(ConfigError, match="no usable"):
            PcapReplaySource(path)


class TestSimulation:
    def test_hash_static_report_matches(self, capture):
        src = PcapReplaySource(capture, chunk_size=64, repeat=2, speedup=4.0)
        ref = simulate(src.materialize(), StaticHashScheduler(),
                       replay_config())
        got = simulate(src.clone(), StaticHashScheduler(), replay_config())
        assert got == ref

    def test_laps_report_matches(self, capture):
        def sched():
            return LAPSScheduler(LAPSConfig(num_services=1), rng=5)
        src = PcapReplaySource(capture, chunk_size=64, repeat=2, speedup=4.0)
        ref = simulate(src.materialize(), sched(), replay_config())
        got = simulate(src.clone(), sched(), replay_config())
        assert got == ref

    def test_midchunk_checkpoint_resume(self, capture):
        def source():
            return PcapReplaySource(capture, chunk_size=64, repeat=2,
                                    speedup=4.0)
        baseline = SimKernel(replay_config(), StaticHashScheduler(),
                             source()).run()
        kern = SimKernel(replay_config(), StaticHashScheduler(), source())
        kern.run_until(source().duration_ns // 3)  # mid-run, mid-chunk
        blob = kern.checkpoint().to_bytes()
        ref = kern.run()
        resumed = SimKernel.resume(
            Checkpoint.from_bytes(blob), replay_config(), source(),
        )
        assert resumed.run() == ref == baseline
