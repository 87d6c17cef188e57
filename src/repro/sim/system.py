"""The network-processor simulator (Fig. 6 wired together).

This module holds :func:`simulate`, the one-shot entry point.  The run
loop itself lives in :class:`repro.sim.kernel.SimKernel`, which owns an
explicit :class:`~repro.sim.kernel.SimState` and exposes ``step()`` /
``run_until(t_ns)`` / ``run()`` plus checkpoint/resume.  The kernel
takes at most one telemetry probe and at most one fault injector, and
calls them (and the scheduler's core up/down callbacks) directly.  See
``docs/architecture.md`` for the layering.

Event structure (unchanged): arrivals come pre-sorted from the
:class:`~repro.sim.workload.Workload` arrays or, chunk by chunk, from a
:class:`~repro.sim.source.PacketSource` (both are accepted wherever a
workload is; a source keeps resident memory at O(chunk)); the only
heap-managed events are core completions and the fault injector's timed
platform events.  Per arriving packet the kernel drains completions up to the
arrival instant, asks the scheduler for a target core, enqueues there
(or drops when the 32-descriptor queue is full), and an idle core
starts the packet immediately with the eq. 3 processing delay
(``T_proc`` + flow-migration/cold-cache penalties).  After the last
arrival the run drains for ``config.drain_ns`` so queued packets depart
and get scored for reordering.

The hot loop indexes plain numpy-backed lists and dicts; per-packet
Python objects are never created.

Use :class:`~repro.sim.kernel.SimKernel` directly for stepping, pausing
and checkpointing.
"""

from __future__ import annotations

from repro.errors import ConfigError, SimulationError
from repro.schedulers.base import Scheduler
from repro.sim.config import SimConfig
from repro.sim.kernel import SimKernel
from repro.sim.metrics import SimReport
from repro.sim.source import PacketSource
from repro.sim.workload import Workload

__all__ = ["simulate"]


def simulate(
    workload: Workload | PacketSource,
    scheduler: Scheduler,
    config: SimConfig | None = None,
    probe=None,
    injector=None,
    *,
    vectorized: bool = True,
    engine: str | None = None,
    shards: int | None = None,
    shard_workers: int = 0,
    shard_window_ns: int | None = None,
) -> SimReport:
    """Convenience one-shot: run *scheduler* on *workload* (a
    materialized :class:`Workload` or a streaming
    :class:`~repro.sim.source.PacketSource`).

    ``vectorized=False`` forces the scalar oracle — per-packet
    scheduling and one heap push/pop per packet, no span drain; the
    report is bit-identical either way (the equivalence suite pins
    this), so the flag only matters for benchmarking both paths.
    *engine* survives only for old callers: ``None`` or ``"heap"`` (the
    one event queue) is accepted, anything else raises
    :class:`~repro.errors.ConfigError`.

    ``shards`` ≥ 2 delegates to :func:`repro.sim.sharding.run_sharded`:
    the system is partitioned and run over ``shard_workers`` processes,
    this one included (0 = auto; 2 spawns one worker, 1 runs every
    shard here), merging per-shard reports exactly — bit-identical for
    static-map schedulers, deterministic in (seed, window, shards) for
    LAPS.  Matching single-process semantics, only the injector's
    *platform* events ride along (traffic events are always the
    caller's job — apply them to the workload first).  Telemetry probes
    sample global state and are not supported sharded.
    """
    if engine not in (None, "heap"):
        raise ConfigError(
            f"engine {engine!r} was removed: the simulator has one event "
            "queue; choose between the span drain and the scalar oracle "
            "with vectorized=True/False"
        )
    if shards is not None and shards > 1:
        if probe is not None:
            raise SimulationError(
                "telemetry probes sample global simulator state and are "
                "not supported on sharded runs — run single-process, or "
                "drop the probe"
            )
        from repro.sim.sharding import run_sharded, sharded_fault_args

        schedule, drain_policy = sharded_fault_args(injector)
        return run_sharded(
            workload, scheduler, config,
            shards=shards, workers=shard_workers,
            window_ns=shard_window_ns, schedule=schedule,
            drain_policy=drain_policy, vectorized=vectorized,
        ).report
    kernel = SimKernel(
        config or SimConfig(), scheduler, workload, vectorized=vectorized
    )
    kernel.attach_injector(injector)
    kernel.attach_probe(probe)
    return kernel.run()
