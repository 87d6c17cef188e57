"""Shared fixtures: small deterministic traces and workloads."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import units
from repro.hashing.five_tuple import FiveTuple
from repro.net.service import Service, ServiceSet
from repro.sim.config import SimConfig
from repro.sim.generator import HoltWintersParams
from repro.sim.workload import build_workload
from repro.trace.synthetic import SyntheticTraceConfig, generate_trace
from repro.trace.trace import Trace


@pytest.fixture
def tiny_trace() -> Trace:
    """A hand-built 6-packet, 3-flow trace."""
    keys = [
        FiveTuple.from_strings("10.0.0.1", "192.168.1.1", 1000, 80, 6),
        FiveTuple.from_strings("10.0.0.2", "192.168.1.2", 2000, 443, 6),
        FiveTuple.from_strings("10.0.0.3", "192.168.1.3", 3000, 53, 17),
    ]
    packets = [
        (keys[0], 100, 0),
        (keys[1], 200, 10),
        (keys[0], 100, 10),
        (keys[2], 64, 5),
        (keys[0], 1500, 5),
        (keys[1], 200, 20),
    ]
    return Trace.from_packets(packets, name="tiny")


@pytest.fixture
def small_synthetic() -> Trace:
    """A 5k-packet synthetic trace with 8 elephants (fast to generate)."""
    config = SyntheticTraceConfig(
        num_packets=5_000,
        num_flows=500,
        num_elephants=8,
        elephant_share=0.5,
        seed=42,
    )
    return generate_trace(config, name="small-synthetic")


@pytest.fixture
def single_service() -> ServiceSet:
    return ServiceSet([Service(0, "ip-forward", units.us(0.5))])


@pytest.fixture
def small_workload(small_synthetic, single_service):
    """~10k packets at roughly 105% of a 4-core system's capacity."""
    capacity = single_service.capacity_pps([4], mean_size_bytes=348.0)
    return build_workload(
        [small_synthetic],
        [HoltWintersParams(a=1.05 * capacity)],
        duration_ns=units.ms(2),
        seed=1,
    )


@pytest.fixture
def small_config(single_service) -> SimConfig:
    return SimConfig(num_cores=4, services=single_service, collect_latencies=True)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fresh_python():
    """Run ``python *args`` in a new interpreter, so nothing this test
    process already imported is in its ``sys.modules``; returns the
    completed process (stdout/stderr as text) after checking it exited 0.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )

    def run(*args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, *args], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    return run
