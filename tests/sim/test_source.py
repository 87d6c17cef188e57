"""Tests for the streaming packet-source pipeline (repro.sim.source).

The contract under test is bit-identity: a :class:`StreamingSource`
must reproduce exactly the packet sequence of the eager
``build_workload`` for the same inputs — per column, per chunk size —
and a simulation fed chunks must produce the same :class:`SimReport`
as one fed the materialized arrays, including under fault injection
and across a mid-chunk checkpoint/resume.
"""

import numpy as np
import pytest

from repro import units
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError, SimulationError
from repro.faults.events import (
    CoreFail,
    CoreRecover,
    CoreSlowdown,
    FaultSchedule,
    TrafficSurge,
)
from repro.faults.injector import FaultInjector, TrafficTransformSource
from repro.net.service import Service, ServiceSet
from repro.schedulers.hash_static import StaticHashScheduler
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.kernel import Checkpoint, SimKernel
from repro.sim.sharding.partition import CorePartitionSource
from repro.sim.source import (
    MaterializedSource,
    StreamingSource,
    WorkloadChunk,
    concat_chunks,
    workload_fingerprint,
)
from repro.sim.system import simulate
from repro.sim.workload import build_workload
from repro.trace.synthetic import preset_trace

COLUMNS = ("arrival_ns", "service_id", "flow_id", "size_bytes",
           "flow_hash", "seq")


def two_service_inputs(trace_packets=2_000):
    traces = [preset_trace("caida-1", num_packets=trace_packets),
              preset_trace("auck-1", num_packets=trace_packets)]
    params = [HoltWintersParams(a=3e6, b=2e8, sigma=0.1),
              HoltWintersParams(a=2e6)]
    return traces, params


def streaming(chunk_size=1000, seed=0, duration_ns=units.ms(1)):
    traces, params = two_service_inputs()
    return StreamingSource(traces, params, duration_ns, seed=seed,
                           chunk_size=chunk_size)


def eager(seed=0, duration_ns=units.ms(1)):
    traces, params = two_service_inputs()
    return build_workload(traces, params, duration_ns=duration_ns, seed=seed)


def two_service_config(**kw):
    svc = ServiceSet([Service(0, "a", 800), Service(1, "b", 1200)])
    kw.setdefault("num_cores", 4)
    kw.setdefault("services", svc)
    return SimConfig(**kw)


def assert_same_columns(workload, reference):
    for col in COLUMNS:
        np.testing.assert_array_equal(
            getattr(workload, col), getattr(reference, col), err_msg=col
        )


# ----------------------------------------------------------------------
class TestMaterializedSource:
    def test_chunks_are_consecutive_slices(self):
        wl = eager()
        src = MaterializedSource(wl, chunk_size=777)
        chunks = list(src.iter_chunks())
        assert [c.base for c in chunks] == \
            list(range(0, wl.num_packets, 777))
        assert sum(len(c) for c in chunks) == wl.num_packets
        assert_same_columns(concat_chunks(chunks), wl)

    def test_materialize_returns_wrapped_workload(self):
        wl = eager()
        assert MaterializedSource(wl).materialize() is wl

    def test_concat_rejects_gap(self):
        wl = eager()
        chunks = list(MaterializedSource(wl, chunk_size=500).iter_chunks())
        with pytest.raises(ConfigError, match="not consecutive"):
            concat_chunks([chunks[0], chunks[2]])


class TestStreamingSource:
    @pytest.mark.parametrize("chunk_size", [333, 4096, 1 << 20])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_bit_identical_to_build_workload(self, chunk_size, seed):
        src = streaming(chunk_size=chunk_size, seed=seed)
        ref = eager(seed=seed)
        assert src.num_packets == ref.num_packets
        assert src.num_flows == ref.num_flows
        assert_same_columns(src.materialize(), ref)

    def test_chunk_shape_invariants(self):
        src = streaming(chunk_size=500)
        chunks = list(src.iter_chunks())
        assert all(isinstance(c, WorkloadChunk) for c in chunks)
        assert all(len(c) == 500 for c in chunks[:-1])
        assert chunks[0].base == 0
        assert all(a.end == b.base for a, b in zip(chunks, chunks[1:]))

    def test_fingerprint_shared_across_modes(self):
        ref = eager()
        fp = workload_fingerprint(ref)
        assert streaming(chunk_size=333).fingerprint() == fp
        assert MaterializedSource(ref, chunk_size=1000).fingerprint() == fp

    def test_fingerprint_differs_across_seeds(self):
        assert streaming(seed=0).fingerprint() != \
            streaming(seed=1).fingerprint()

    def test_generator_seed_rejected(self):
        traces, params = two_service_inputs()
        with pytest.raises(ConfigError, match="replay"):
            StreamingSource(traces, params, units.ms(1),
                            seed=np.random.default_rng(0))

    def test_clone_replays_identically(self):
        src = streaming(chunk_size=400)
        first = [src.next_chunk() for _ in range(3)]
        clone = src.clone()
        for want in first:
            got = clone.next_chunk()
            assert got.base == want.base
            np.testing.assert_array_equal(got.arrival_ns, want.arrival_ns)


# ----------------------------------------------------------------------
def one_service(chunk_size=700):
    return StreamingSource(
        [preset_trace("caida-1", num_packets=2_000)],
        [HoltWintersParams(a=3e6)], units.ms(1), seed=3,
        chunk_size=chunk_size,
    )


def assert_same_stream(got, want):
    """Chunk for chunk equal: bases, lengths and all six columns."""
    got, want = list(got.iter_chunks()), list(want.iter_chunks())
    assert [(c.base, len(c)) for c in got] == [(c.base, len(c)) for c in want]
    for g, w in zip(got, want):
        for col in COLUMNS:
            np.testing.assert_array_equal(getattr(g, col), getattr(w, col))


def surge():
    return FaultSchedule([
        TrafficSurge(units.us(200), service_id=0, factor=3.0,
                     duration_ns=units.us(300)),
    ])


class TestCloneSharesFlowHashes:
    """A clone reuses its parent's per-flow hash tables (no second CRC
    pass over the traces' flows): the same read-only arrays, and the
    same stream as a freshly built source."""

    @pytest.mark.parametrize("build", [one_service, streaming])
    def test_clone_shares_read_only_tables(self, build):
        src = build()
        clone = src.clone()
        assert len(src._flow_hashes) == src.num_services
        for mine, theirs in zip(clone._flow_hashes, src._flow_hashes):
            assert mine is theirs
            assert not mine.flags.writeable
            with pytest.raises(ValueError):
                mine[0] = 1
        assert_same_stream(clone, build())

    @pytest.mark.parametrize("build", [one_service, streaming])
    def test_core_partition_clone_shares_tables(self, build):
        def part(inner):
            return CorePartitionSource(
                inner, StaticHashScheduler(), (0, 2), num_cores=4,
                queue_capacity=32,
            )

        src = build()
        clone = part(src.clone()).clone()
        for mine, theirs in zip(clone.inner._flow_hashes, src._flow_hashes):
            assert mine is theirs
        assert_same_stream(clone, part(build()))

    @pytest.mark.parametrize("build", [one_service, streaming])
    def test_traffic_transform_clone_shares_tables(self, build):
        src = build()
        clone = TrafficTransformSource(src.clone(), surge()).clone()
        for mine, theirs in zip(clone.inner._flow_hashes, src._flow_hashes):
            assert mine is theirs
        assert_same_stream(clone, TrafficTransformSource(build(), surge()))


# ----------------------------------------------------------------------
class TestStreamedSimulation:
    def test_hash_static_report_matches(self):
        ref = simulate(eager(), StaticHashScheduler(), two_service_config())
        got = simulate(streaming(chunk_size=512), StaticHashScheduler(),
                       two_service_config())
        assert got == ref

    def test_laps_report_matches(self):
        def sched():
            return LAPSScheduler(LAPSConfig(num_services=2), rng=5)
        ref = simulate(eager(), sched(), two_service_config())
        got = simulate(streaming(chunk_size=512), sched(),
                       two_service_config())
        assert got == ref
        assert got.flow_migration_events == ref.flow_migration_events

    def test_fault_schedule_report_matches(self):
        # an F-scenario-style run: fail, slow down, recover, reassign
        schedule = FaultSchedule([
            CoreFail(units.us(100), core_id=1),
            CoreSlowdown(units.us(150), core_id=2, factor=2.0),
            CoreRecover(units.us(500), core_id=1),
        ])

        def run(workload):
            return simulate(
                workload, StaticHashScheduler(), two_service_config(),
                injector=FaultInjector(schedule, drain_policy="reassign"),
            )

        assert run(streaming(chunk_size=512)) == run(eager())

    def test_source_survives_multiple_runs(self):
        src = streaming(chunk_size=512)
        first = simulate(src, StaticHashScheduler(), two_service_config())
        second = simulate(src, StaticHashScheduler(), two_service_config())
        assert first == second


# ----------------------------------------------------------------------
class TestStreamedCheckpoint:
    def _kernel(self, workload):
        return SimKernel(two_service_config(), StaticHashScheduler(),
                         workload)

    def _midchunk_resume(self, resume_chunk):
        baseline = self._kernel(streaming(chunk_size=512)).run()

        kern = self._kernel(streaming(chunk_size=512))
        kern.run_until(units.us(300))  # mid-run, mid-chunk
        blob = kern.checkpoint().to_bytes()
        ref = kern.run()

        resumed = SimKernel.resume(
            Checkpoint.from_bytes(blob), two_service_config(),
            streaming(chunk_size=resume_chunk),
        )
        assert resumed.run() == ref == baseline

    def test_midchunk_resume_bit_identical(self):
        self._midchunk_resume(512)

    @pytest.mark.parametrize("resume_chunk", [97, 4096])
    def test_midchunk_resume_rechunked(self, resume_chunk):
        # fingerprints ignore chunk boundaries and resume replays the
        # source, so the resuming source may chunk differently
        self._midchunk_resume(resume_chunk)

    def test_cross_mode_resume(self):
        # checkpoint a streamed run, resume it from materialized arrays
        kern = self._kernel(streaming(chunk_size=512))
        kern.run_until(units.us(300))
        blob = kern.checkpoint().to_bytes()
        ref = kern.run()

        resumed = SimKernel.resume(
            Checkpoint.from_bytes(blob), two_service_config(), eager()
        )
        assert resumed.run() == ref

        # and the reverse: materialized checkpoint, streamed resume
        kern2 = self._kernel(eager())
        kern2.run_until(units.us(300))
        blob2 = kern2.checkpoint().to_bytes()
        ref2 = kern2.run()
        resumed2 = SimKernel.resume(
            Checkpoint.from_bytes(blob2), two_service_config(),
            streaming(chunk_size=512),
        )
        assert resumed2.run() == ref2 == ref

    def test_resume_rejects_other_workload(self):
        kern = self._kernel(streaming(chunk_size=512))
        kern.run_until(units.us(300))
        blob = kern.checkpoint().to_bytes()
        with pytest.raises(SimulationError, match="different workload"):
            SimKernel.resume(Checkpoint.from_bytes(blob),
                             two_service_config(),
                             streaming(chunk_size=512, seed=9))
