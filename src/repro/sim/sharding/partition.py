"""Partitioned packet sources: each shard's slice of the traffic.

Both filters wrap a fresh clone of the full (already traffic-
transformed) source and re-emit the masked sub-stream re-based to its
own consecutive packet indexing, preserving the ``clone`` cursor
contract.  Flow identity is global and every flow lives wholly inside
one shard in both modes (a flow has one service, and a statically-
mapped flow has one core), so the ``seq`` column and the reorder
detector keep working unchanged.

:class:`CorePartitionSource` (cores mode) replays the scheduler's own
vectorized plan over a pristine copy bound to an all-idle load view:
for a ``shard_static`` scheduler the planned core of every packet *is*
the core the real run will choose, so "packets of core group G" is a
pure function of the packet columns.  The planning copy must never
mutate its tables — a ``map_epoch`` bump or an out-of-range core
during planning means the scheduler is not statically partitionable
and raises immediately.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.errors import SimulationError
from repro.sim.source import PacketSource, WorkloadChunk

__all__ = ["CorePartitionSource", "ServiceFilterSource"]


class _PlanView:
    """An all-idle :class:`~repro.schedulers.base.LoadView` for the
    planning copy of a scheduler (``occ`` is never read by a static
    plan, but bind() wants a complete view)."""

    def __init__(self, num_cores: int, queue_capacity: int) -> None:
        self.num_cores = num_cores
        self.queue_capacity = queue_capacity
        self.occ = [0] * num_cores


class _FilteredSource(PacketSource):
    """Shared plumbing: mask inner chunks, re-base, keep the cursor
    contract.  Subclasses implement :meth:`_mask` (and may override
    :meth:`_emit` to transform the surviving columns)."""

    def __init__(self, inner: PacketSource) -> None:
        super().__init__()
        self.inner = inner
        self.num_flows = inner.num_flows
        self.duration_ns = inner.duration_ns
        self.chunk_size = inner.chunk_size
        self._emitted = 0
        self._count: int | None = None

    # -- sizing ---------------------------------------------------------
    @property
    def num_packets(self) -> int:
        """Packets surviving the filter (lazily counted by a dedicated
        generation pass; the kernel itself never asks)."""
        if self._count is None:
            n = 0
            for chunk in self.iter_chunks():
                n += len(chunk)
            self._count = n
        return self._count

    # -- filter hooks ---------------------------------------------------
    def _mask(self, chunk: WorkloadChunk) -> np.ndarray:
        raise NotImplementedError

    def _emit(self, chunk: WorkloadChunk, mask: np.ndarray) -> tuple:
        if mask.all():
            return (
                chunk.arrival_ns, chunk.service_id, chunk.flow_id,
                chunk.size_bytes, chunk.flow_hash, chunk.seq,
            )
        return (
            chunk.arrival_ns[mask], chunk.service_id[mask],
            chunk.flow_id[mask], chunk.size_bytes[mask],
            chunk.flow_hash[mask], chunk.seq[mask],
        )

    # -- cursor ---------------------------------------------------------
    def next_chunk(self) -> WorkloadChunk | None:
        while True:
            chunk = self.inner.next_chunk()
            if chunk is None:
                return None
            mask = self._mask(chunk)
            if not mask.any():
                continue  # nothing of ours in this block; keep pulling
            cols = self._emit(chunk, mask)
            base = self._emitted
            self._emitted += int(cols[0].shape[0])
            return WorkloadChunk(base, *cols)


class CorePartitionSource(_FilteredSource):
    """The packets a static scheduler routes into one core group.

    *scheduler* is kept pristine as the plan prototype: every cursor
    (the object itself and each :meth:`clone`) deep-copies it and binds
    the copy to an all-idle view, then replays ``assign_batch`` per
    chunk to find each packet's planned core.
    """

    def __init__(
        self,
        inner: PacketSource,
        scheduler,
        core_group,
        num_cores: int,
        queue_capacity: int,
    ) -> None:
        super().__init__(inner)
        self.num_services = inner.num_services
        self._proto = scheduler
        self._num_cores = num_cores
        self._queue_capacity = queue_capacity
        self._group = tuple(core_group)
        member = np.zeros(num_cores, dtype=bool)
        member[list(self._group)] = True
        self._member = member
        planner = copy.deepcopy(scheduler)
        planner.bind(_PlanView(num_cores, queue_capacity))
        self._planner = planner

    def _mask(self, chunk: WorkloadChunk) -> np.ndarray:
        sched = self._planner
        n = len(chunk)
        cores = np.empty(n, dtype=np.int64)
        epoch = sched.map_epoch
        pos = 0
        while pos < n:
            planned = sched.assign_batch(
                chunk.flow_hash[pos:], chunk.service_id[pos:],
                chunk.flow_id[pos:], chunk.arrival_ns[pos:],
            )
            if (
                planned is None
                or len(planned) == 0
                or sched.map_epoch != epoch
            ):
                raise SimulationError(
                    f"scheduler {sched.name!r} cannot be core-partitioned: "
                    "its assignment plan stalled or mutated during planning"
                )
            m = len(planned)
            cores[pos:pos + m] = planned
            pos += m
        if (cores < 0).any() or (cores >= self._num_cores).any():
            raise SimulationError(
                f"scheduler {sched.name!r} planned an out-of-range core"
            )
        return self._member[cores]

    def clone(self) -> "CorePartitionSource":
        src = CorePartitionSource(
            self.inner.clone(), self._proto, self._group,
            self._num_cores, self._queue_capacity,
        )
        src._count = self._count
        return src


class ServiceFilterSource(_FilteredSource):
    """One shard's service slice, relabelled to dense local ids.

    *services* are the global service ids this shard owns (ascending);
    global id ``services[i]`` becomes local id ``i``.  Flow ids stay
    global — services are flow-disjoint, so per-flow state (sequence
    numbers, reorder scoring, migration pins) never crosses shards.
    """

    def __init__(self, inner: PacketSource, services) -> None:
        super().__init__(inner)
        self._services = tuple(services)
        self.num_services = len(self._services)
        lut = np.full(inner.num_services, -1, dtype=np.int32)
        for local, sid in enumerate(self._services):
            if sid < inner.num_services:  # platform may define more
                lut[sid] = local          # services than the traffic uses
        self._lut = lut

    def _mask(self, chunk: WorkloadChunk) -> np.ndarray:
        return self._lut[chunk.service_id] >= 0

    def _emit(self, chunk: WorkloadChunk, mask: np.ndarray) -> tuple:
        cols = super()._emit(chunk, mask)
        return (cols[0], self._lut[cols[1]], *cols[2:])

    def clone(self) -> "ServiceFilterSource":
        src = ServiceFilterSource(self.inner.clone(), self._services)
        src._count = self._count
        return src
