"""Span drain vs scalar oracle: bit-identical reports, exact resume.

The simulator has one event queue and two paths over it: the span
drain (``vectorized=True``, the default) and the scalar oracle
(``vectorized=False``: per-packet scheduling and one heap push/pop per
packet).  The path is a speed knob, never a behaviour knob —
``SimReport``s are bit-identical for every scheduler, materialized and
streamed sources and fault schedules, and a checkpoint taken on one
path resumes bit-exactly on the other.
"""

from __future__ import annotations

import gc
import gzip
import pickle
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import units
from repro.errors import ConfigError, SimulationError
from repro.experiments.runner import scenario_config
from repro.faults.injector import FaultInjector
from repro.obs import TelemetryProbe
from repro.obs.manifest import RunManifest
from repro.sim import system
from repro.sim.kernel import CHECKPOINT_VERSION, Checkpoint, SimKernel
from repro.sim.reorder import ReorderDetector
from repro.sim.system import simulate
from tests.schedulers.test_assign_batch import (
    KERNEL_SCHEDULERS,
    PLAN_SCHEDULERS,
    _config,
    _faults,
    _kernel_sched,
    _workload,
)

FIXTURES = Path(__file__).parent / "fixtures"


def _run(name, vectorized, *, chunk_size=None, faulted=False, probed=False,
         seed=3):
    wl = _workload(seed, chunk_size)
    injector = FaultInjector(_faults()) if faulted else None
    probe = TelemetryProbe(units.us(50)) if probed else None
    return simulate(wl, _kernel_sched(name), _config(), probe=probe,
                    injector=injector, vectorized=vectorized)


# ----------------------------------------------------------------------
# report bit-identity across the two paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_span_bit_identical_materialized(name):
    assert _run(name, True) == _run(name, False)


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_span_bit_identical_streamed(name):
    assert _run(name, True, chunk_size=701) == _run(name, False, chunk_size=701)


@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_span_bit_identical_faulted(name):
    assert _run(name, True, faulted=True) == _run(name, False, faulted=True)


@pytest.mark.parametrize("faulted", [False, True], ids=["fault-free", "faulted"])
@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_probe_does_not_change_the_report(name, faulted):
    """Observing a run never changes it: with a probe (the full sampler
    battery) attached the report equals the unprobed one."""
    assert _run(name, True, faulted=faulted, probed=True) == _run(
        name, True, faulted=faulted
    )


def test_span_bit_identical_at_drop_heavy_load(monkeypatch):
    """hash-static on a streamed CAIDA-like trace at 0.9 offered load
    over 16 cores for 2 ms: 58,103 packets, 17 % of them dropped, so
    drops often land ahead of their flow's queued packets and flows
    enter spans with pending seqs.  The span report equals the
    scalar one, and at least one reorder batch folds a flow's pending
    seqs in."""
    service = repro.Service(0, "ip-forward", units.us(0.5))
    trace = repro.preset_trace("caida-1", num_packets=100_000)
    source = repro.StreamingSource(
        [trace], [repro.HoltWintersParams(a=0.9 * 16 * service.capacity_pps())],
        units.ms(2), seed=0,
    )
    cfg = scenario_config(
        num_cores=16, services=repro.ServiceSet([service]),
        collect_latencies=True,
    )
    folds = []
    account_batch = ReorderDetector.account_batch

    def spy(det, flow_id, seq, dropped):
        folds.append(any(f in det._pending for f in set(flow_id.tolist())))
        account_batch(det, flow_id, seq, dropped)

    monkeypatch.setattr(ReorderDetector, "account_batch", spy)
    span = simulate(source, _kernel_sched("hash-static"), cfg)
    scalar = simulate(source, _kernel_sched("hash-static"), cfg,
                      vectorized=False)
    assert span == scalar
    assert span.generated == 58_103
    assert span.dropped > 0.15 * span.generated
    assert any(folds)


@pytest.mark.parametrize("name", PLAN_SCHEDULERS)
def test_spans_actually_commit(name):
    """Guard against the parity tests passing vacuously: every plan
    rides the span drain, so the default path must really drain spans,
    and the oracle must never."""
    wl = _workload(3, None)
    kernel = SimKernel(_config(), _kernel_sched(name), wl)
    kernel.run()
    stats = kernel.span_stats
    assert stats["spans_committed"] > 0
    assert stats["packets_spanned"] > 0
    oracle = SimKernel(_config(), _kernel_sched(name), wl,
                       vectorized=False)
    oracle.run()
    assert oracle.span_stats["packets_spanned"] == 0


@pytest.mark.parametrize("observers", ["none", "injector", "probe", "both"])
@pytest.mark.parametrize("name", KERNEL_SCHEDULERS)
def test_finished_kernel_is_freed_without_gc(name, observers):
    """Nothing holds a finished run alive: the span driver, the
    injector and the probe take the kernel as an argument instead of
    storing it, and finalize() drops the compiled closures, so the run
    (window, state, latency list) is released by reference counting
    alone, not left for a cyclic collection."""
    refs = []

    class Recorded(SimKernel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            refs.append(weakref.ref(self))

    injector = probe = None
    if observers in ("injector", "both"):
        injector = FaultInjector(_faults())
    if observers in ("probe", "both"):
        probe = TelemetryProbe(units.us(50))
    original = system.SimKernel
    gc.disable()
    try:
        system.SimKernel = Recorded
        simulate(_workload(3, None), _kernel_sched(name), _config(),
                 probe=probe, injector=injector)
        assert len(refs) == 1
        assert refs[0]() is None
    finally:
        system.SimKernel = original
        gc.enable()


def test_engine_keyword_accepts_only_heap():
    wl = _workload(2, None)
    rep = simulate(wl, _kernel_sched("hash-static"), _config(), engine="heap")
    assert rep == simulate(wl, _kernel_sched("hash-static"), _config())
    with pytest.raises(ConfigError, match="removed"):
        simulate(wl, _kernel_sched("hash-static"), _config(), engine="calendar")


# ----------------------------------------------------------------------
# checkpoint / resume across the two paths
# ----------------------------------------------------------------------


@pytest.mark.parametrize("pair", [
    (False, True),
    (True, False),
    (True, True),
    (False, False),
])
@pytest.mark.parametrize("name", ["laps", "hash-static"])
def test_cross_path_checkpoint_resume(name, pair):
    """A checkpoint taken on one path resumes bit-exactly on the other:
    the blob stores the run state and never any span-drain or
    column-plan state."""
    vec_a, vec_b = pair
    cfg = _config()
    wl = _workload(1, None)
    base = simulate(wl, _kernel_sched(name), cfg,
                    injector=FaultInjector(_faults()), vectorized=vec_a)

    kernel = SimKernel(cfg, _kernel_sched(name), wl, vectorized=vec_a)
    kernel.attach_injector(FaultInjector(_faults()))
    kernel.run_until(units.us(400))  # mid-run, with a core down
    ckpt = kernel.checkpoint()
    resumed = SimKernel.resume(ckpt, cfg, wl, vectorized=vec_b)
    assert resumed.run() == base


def test_checkpoint_blob_holds_the_live_state():
    """The blob pickles exactly ``(SimState, scheduler, injector)``
    with the event heap as it is, and taking it must not disturb the
    running kernel."""
    wl = _workload(4, None)
    kernel = SimKernel(_config(), _kernel_sched("hash-static"), wl)
    kernel.run_until(units.us(300))
    ckpt = kernel.checkpoint()
    assert ckpt.version == CHECKPOINT_VERSION
    payload = pickle.loads(ckpt.blob)
    assert len(payload) == 3
    state, _sched, _inj = payload
    live = kernel.state
    assert state.heap == live.heap
    assert (state.seq, state.last_pop_ns, state.popped) == (
        live.seq, live.last_pop_ns, live.popped
    )
    ref = simulate(wl, _kernel_sched("hash-static"), _config())
    assert kernel.run() == ref


@pytest.mark.parametrize("vectorized", [True, False])
def test_checkpoint_round_trips_chunked_latencies(vectorized):
    """A blob pickles the latency samples as the int64 chunks the
    bookings appended; they come back as chunks, sample for sample, and
    the resumed run reports what the uninterrupted run does."""
    wl = _workload(4, None)
    kernel = SimKernel(_config(), _kernel_sched("laps"), wl,
                       vectorized=vectorized)
    for t in (units.us(100), units.us(200), units.us(300)):
        kernel.run_until(t)  # each advance settles: one chunk at least
    ckpt = kernel.checkpoint()
    live = kernel.state.metrics.latencies_ns
    saved = pickle.loads(ckpt.blob)[0].metrics.latencies_ns
    assert len(saved) == len(live) > 1
    for got, want in zip(saved, live):
        assert isinstance(got, np.ndarray) and got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    resumed = SimKernel.resume(ckpt, _config(), wl, vectorized=vectorized)
    ref = simulate(wl, _kernel_sched("laps"), _config(), vectorized=vectorized)
    assert resumed.run() == ref


def _fixture(version: int) -> dict:
    return pickle.loads(gzip.decompress(
        (FIXTURES / f"checkpoint_v{version}.pkl.gz").read_bytes()
    ))


@pytest.mark.parametrize("vectorized", [True, False])
def test_committed_v7_checkpoint_resumes(vectorized):
    """A committed v7 blob (faulted LAPS, paused at 400 us) loads and
    resumes to the report the uninterrupted run produced when the v4
    fixture was taken: the blob format changed, the outcome did not."""
    saved = _fixture(7)
    ckpt = Checkpoint.from_bytes(saved["checkpoint"])
    cfg = _config(record_departures=False)
    resumed = SimKernel.resume(ckpt, cfg, _workload(1, None),
                               vectorized=vectorized)
    # the blob's list of ints comes back as one int64 chunk
    (chunk,) = resumed.state.metrics.latencies_ns
    assert chunk.dtype == np.int64
    assert resumed.run() == saved["report"]


def test_committed_v6_checkpoint_is_refused():
    """A v6 blob pickles an ``EventQueue`` and ``BoundedQueue``
    objects v7 no longer has, so loading it fails early with a typed
    error naming both versions."""
    raw = _fixture(6)["checkpoint"]
    with pytest.raises(
        SimulationError, match=r"checkpoint version 6 unsupported \(expected 7\)"
    ):
        Checkpoint.from_bytes(raw)


# ----------------------------------------------------------------------
# manifest provenance
# ----------------------------------------------------------------------


def test_old_manifest_with_engine_key_loads():
    d = RunManifest.capture(seed=1, scheduler="laps").to_dict()
    assert "engine" not in d
    d["engine"] = "calendar"
    m = RunManifest.from_dict(d)
    assert m.scheduler == "laps"
    assert m.to_dict() == RunManifest.from_dict(m.to_dict()).to_dict()
