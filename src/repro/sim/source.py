"""Chunked packet sources: the streaming workload pipeline.

A :class:`PacketSource` yields the simulator's six packet columns as
consecutive fixed-size :class:`WorkloadChunk` blocks instead of one
whole-run :class:`~repro.sim.workload.Workload`, so run length is
bounded by the Holt-Winters horizon rather than by RAM:

* :class:`MaterializedSource` wraps an already-built workload (full
  backward compatibility; with a ``chunk_size`` it exercises the
  chunked kernel path over in-memory arrays);
* :class:`StreamingSource` fuses per-service
  :class:`~repro.sim.generator.ArrivalStream` generation with
  :class:`~repro.trace.trace.HeaderCursor` header replay into an
  incremental k-way time merge that is **bit-identical** to
  :func:`~repro.sim.workload.build_workload` at O(chunk) memory.

Bit-identity rests on three invariants (each pinned by tests):

1. *RNG draw order* — per service, all segment rates then all Poisson
   counts are drawn up front exactly as ``arrival_times`` draws them;
   only the per-arrival uniforms stream, and numpy ``Generator`` draws
   are bit-identical whether taken whole or chunked.
2. *Safe merge horizon* — a service's unrealised arrivals are all
   ``>= pending_floor_ns()`` (its next segment start), so every
   buffered arrival strictly below ``min`` over services of that floor
   can be released: nothing earlier can appear later.  Released batches
   concatenate per-service prefixes in service order and stable-sort by
   time — exactly the global ``argsort(kind="stable")`` tie-break of
   ``build_workload``.
3. *Incremental sequence numbers* — per-flow counters assign each
   released batch the same 0-based sequences the global
   ``_per_flow_sequences`` pass would (both are
   :func:`~repro.sim.workload.next_sequences`).

Sources are cursors: ``next_chunk()`` consumes.  ``clone()`` returns a
fresh, unconsumed source of the same spec (cheap — the kernel clones
its source on construction so one source object can seed many runs,
and checkpoint resume replays a fresh clone up to the saved position).
``fingerprint()`` is a streaming blake2b digest over the chunk bytes,
independent of chunk boundaries, so materialized and streamed builds
of the same spec share one fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hashing.crc import CRC16_CCITT, CRCSpec
from repro.sim.generator import ArrivalStream, HoltWintersParams, build_rate_model
from repro.sim.workload import Workload, next_sequences, service_flow_hashes
from repro.trace.trace import Trace
from repro.util.rng import spawn_rngs

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "WorkloadChunk",
    "PacketSource",
    "MaterializedSource",
    "StreamingSource",
    "workload_fingerprint",
]

#: default packets per chunk (~3 MB of column data)
DEFAULT_CHUNK_SIZE = 65_536

#: sentinel horizon meaning "release everything buffered"
_NO_HORIZON = 1 << 62


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadChunk:
    """One consecutive block of the global packet sequence.

    ``base`` is the global index of the first packet; the six column
    arrays match :class:`~repro.sim.workload.Workload` dtypes and cover
    packets ``base .. base + len - 1`` in arrival order.
    """

    base: int
    arrival_ns: np.ndarray
    service_id: np.ndarray
    flow_id: np.ndarray
    size_bytes: np.ndarray
    flow_hash: np.ndarray
    seq: np.ndarray

    def __len__(self) -> int:
        return int(self.arrival_ns.shape[0])

    @property
    def end(self) -> int:
        """Global index one past the last packet in this chunk."""
        return self.base + len(self)


_COLS = ("arrival_ns", "service_id", "flow_id", "size_bytes", "flow_hash", "seq")
_COL_DTYPES = (np.int64, np.int32, np.int64, np.int32, np.int64, np.int64)


def concat_chunks(chunks: list[WorkloadChunk]) -> WorkloadChunk:
    """Merge consecutive chunks into one (the kernel's arrival window)."""
    if not chunks:
        return empty_chunk(0)
    if len(chunks) == 1:
        return chunks[0]
    for prev, nxt in zip(chunks, chunks[1:]):
        if nxt.base != prev.end:
            raise ConfigError(
                f"chunks are not consecutive: {prev.end} then {nxt.base}"
            )
    return WorkloadChunk(
        chunks[0].base,
        *(np.concatenate([getattr(c, col) for c in chunks]) for col in _COLS),
    )


def empty_chunk(base: int) -> WorkloadChunk:
    return WorkloadChunk(
        base, *(np.empty(0, dtype=dt) for dt in _COL_DTYPES)
    )


# ----------------------------------------------------------------------
# content fingerprint (streaming blake2b, chunk-boundary independent)
# ----------------------------------------------------------------------
class _Fingerprint:
    """Streaming digest over the six packet columns.

    One blake2b per column, fed chunk by chunk — ``update`` granularity
    does not change a hash, so any chunking of the same packet sequence
    (including the degenerate whole-workload "chunk") yields the same
    digest; the final value also binds the structural header.
    """

    def __init__(self) -> None:
        self._hashes = {c: hashlib.blake2b(digest_size=16) for c in _COLS}

    def add(self, chunk) -> None:
        """Feed one chunk (or a whole workload — same attributes)."""
        for col, dtype in zip(_COLS, _COL_DTYPES):
            arr = np.ascontiguousarray(getattr(chunk, col), dtype=dtype)
            self._hashes[col].update(arr)

    def finish(
        self, n: int, duration_ns: int, num_flows: int, num_services: int
    ) -> str:
        h = hashlib.blake2b(digest_size=16)
        h.update(
            f"wl-v2;n={n};dur={duration_ns};flows={num_flows};"
            f"svcs={num_services}".encode()
        )
        for col in _COLS:
            h.update(self._hashes[col].digest())
        return h.hexdigest()


def workload_fingerprint(workload) -> str:
    """Content fingerprint of a :class:`Workload` or a
    :class:`PacketSource` — equal whenever the packet sequences are
    equal, regardless of how they are built or chunked."""
    if isinstance(workload, PacketSource):
        return workload.fingerprint()
    acc = _Fingerprint()
    acc.add(workload)
    return acc.finish(
        workload.num_packets, workload.duration_ns,
        workload.num_flows, workload.num_services,
    )


# ----------------------------------------------------------------------
class _BatchQueue:
    """Released-but-not-yet-emitted column batches, split on demand."""

    __slots__ = ("_batches", "count")

    def __init__(self) -> None:
        self._batches: list[tuple[np.ndarray, ...]] = []
        self.count = 0

    def push(self, cols: tuple[np.ndarray, ...]) -> None:
        n = cols[0].shape[0]
        if n:
            self._batches.append(cols)
            self.count += n

    def take(self, n: int) -> tuple[np.ndarray, ...]:
        """Pop the first *n* packets as one column set."""
        if n > self.count:
            raise ConfigError(f"cannot take {n} of {self.count} queued packets")
        acc: list[tuple[np.ndarray, ...]] = []
        got = 0
        while got < n:
            batch = self._batches[0]
            k = batch[0].shape[0]
            if got + k <= n:
                acc.append(batch)
                self._batches.pop(0)
                got += k
            else:
                need = n - got
                acc.append(tuple(c[:need] for c in batch))
                self._batches[0] = tuple(c[need:] for c in batch)
                got = n
        self.count -= n
        if len(acc) == 1:
            return acc[0]
        return tuple(
            np.concatenate([a[i] for a in acc]) for i in range(len(_COLS))
        )


# ----------------------------------------------------------------------
class PacketSource:
    """Protocol + shared plumbing for chunked packet producers.

    Subclasses provide the sizing attributes (``num_packets``,
    ``num_flows``, ``num_services``, ``duration_ns``, ``chunk_size``)
    and implement :meth:`next_chunk` and :meth:`clone`.  A source is a
    *cursor*: ``next_chunk`` consumes; pass a fresh :meth:`clone` to
    each consumer (the kernel does this itself).
    """

    num_packets: int
    num_flows: int
    num_services: int
    duration_ns: int
    #: packets per chunk; None means "one whole-workload chunk"
    chunk_size: int | None

    def __init__(self) -> None:
        self._fingerprint_cache: str | None = None

    def next_chunk(self) -> WorkloadChunk | None:
        """The next consecutive chunk, or None when exhausted."""
        raise NotImplementedError

    def clone(self) -> "PacketSource":
        """A fresh, unconsumed source of the same spec."""
        raise NotImplementedError

    def iter_chunks(self):
        """Iterate a fresh clone's chunks (does not consume *self*)."""
        src = self.clone()
        while (chunk := src.next_chunk()) is not None:
            yield chunk

    def materialize(self) -> Workload:
        """The full :class:`Workload` this source streams (a fresh
        generation pass; does not consume *self*)."""
        return Workload.from_chunks(
            list(self.iter_chunks()),
            num_flows=self.num_flows,
            num_services=self.num_services,
            duration_ns=self.duration_ns,
        )

    def fingerprint(self) -> str:
        """Streaming blake2b content fingerprint (cached; computed by a
        dedicated O(chunk)-memory generation pass)."""
        if self._fingerprint_cache is None:
            acc = _Fingerprint()
            for chunk in self.iter_chunks():
                acc.add(chunk)
            self._fingerprint_cache = acc.finish(
                self.num_packets, self.duration_ns,
                self.num_flows, self.num_services,
            )
        return self._fingerprint_cache


# ----------------------------------------------------------------------
class MaterializedSource(PacketSource):
    """A :class:`PacketSource` view over an already-built workload.

    With the default ``chunk_size=None`` the whole workload comes back
    as a single chunk (the kernel's fast path); with an explicit size
    the kernel exercises the same windowed consumption a
    :class:`StreamingSource` gets, over zero-copy array views.
    """

    def __init__(self, workload: Workload, chunk_size: int | None = None) -> None:
        super().__init__()
        if chunk_size is not None and chunk_size <= 0:
            raise ConfigError(f"chunk size must be positive, got {chunk_size}")
        self.workload = workload
        self.chunk_size = chunk_size
        self._pos = 0

    @property
    def num_packets(self) -> int:
        return self.workload.num_packets

    @property
    def num_flows(self) -> int:
        return self.workload.num_flows

    @property
    def num_services(self) -> int:
        return self.workload.num_services

    @property
    def duration_ns(self) -> int:
        return self.workload.duration_ns

    def next_chunk(self) -> WorkloadChunk | None:
        wl = self.workload
        pos = self._pos
        if pos >= wl.num_packets:
            return None
        end = wl.num_packets
        if self.chunk_size is not None:
            end = min(pos + self.chunk_size, end)
        self._pos = end
        return WorkloadChunk(
            pos,
            wl.arrival_ns[pos:end], wl.service_id[pos:end],
            wl.flow_id[pos:end], wl.size_bytes[pos:end],
            wl.flow_hash[pos:end], wl.seq[pos:end],
        )

    def clone(self) -> "MaterializedSource":
        return MaterializedSource(self.workload, self.chunk_size)

    def materialize(self) -> Workload:
        return self.workload

    def fingerprint(self) -> str:
        if self._fingerprint_cache is None:
            self._fingerprint_cache = workload_fingerprint(self.workload)
        return self._fingerprint_cache


# ----------------------------------------------------------------------
class StreamingSource(PacketSource):
    """Incremental :func:`~repro.sim.workload.build_workload`.

    Same inputs (parallel per-service traces and Holt-Winters params),
    same output packet sequence bit for bit, but realised as a k-way
    time merge over per-service :class:`ArrivalStream` cursors: each
    merge round advances the service whose next unrealised segment
    starts earliest, then releases every buffered arrival strictly
    below the new safe horizon (see the module docstring for why that
    reproduces the global stable sort).  Memory is O(chunk + segment +
    flows), independent of run length.

    The seed must be reproducible (int / SeedSequence / None) — a live
    ``np.random.Generator`` cannot be rewound, which :meth:`clone`
    requires.  A clone shares its parent's read-only per-flow hash
    tables instead of hashing every trace's flows again.
    """

    def __init__(
        self,
        traces: list[Trace],
        params: list[HoltWintersParams],
        duration_ns: int,
        seed: int | np.random.SeedSequence | None = 0,
        hash_spec: CRCSpec = CRC16_CCITT,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        _flow_hashes: tuple[np.ndarray, ...] | None = None,
    ) -> None:
        super().__init__()
        if not traces:
            raise ConfigError("need at least one service trace")
        if len(traces) != len(params):
            raise ConfigError(
                f"{len(traces)} traces vs {len(params)} parameter rows"
            )
        if duration_ns <= 0:
            raise ConfigError(f"duration must be positive, got {duration_ns}")
        if chunk_size <= 0:
            raise ConfigError(f"chunk size must be positive, got {chunk_size}")
        if isinstance(seed, np.random.Generator):
            raise ConfigError(
                "StreamingSource needs a reproducible seed (int, "
                "SeedSequence or None), not a live Generator: clone() "
                "must be able to replay the stream from the start"
            )
        for sid, trace in enumerate(traces):
            if trace.num_packets == 0:
                raise ConfigError(f"service {sid} has an empty trace")
        self.traces = list(traces)
        self.params = list(params)
        self.duration_ns = int(duration_ns)
        self.seed = seed
        self.hash_spec = hash_spec
        self.chunk_size = int(chunk_size)
        self.num_services = len(traces)
        offsets = []
        total_flows = 0
        for trace in self.traces:
            offsets.append(total_flows)
            total_flows += trace.num_flows
        self._flow_offsets = offsets
        self.num_flows = total_flows
        self._flow_hashes = (
            _flow_hashes
            if _flow_hashes is not None
            else tuple(service_flow_hashes(t, hash_spec) for t in self.traces)
        )
        rngs = spawn_rngs(self.seed, self.num_services)
        self._streams = [
            ArrivalStream(build_rate_model(p), self.duration_ns, rng)
            for p, rng in zip(self.params, rngs)
        ]
        self._cursors = [t.header_cursor() for t in self.traces]
        # per-service pending arrival-time buffers (realised, unreleased)
        self._buffers: list[list[np.ndarray]] = [[] for _ in self.traces]
        self._out = _BatchQueue()
        self._seq_next = np.zeros(self.num_flows, dtype=np.int64)
        self._emitted = 0
        self._merged_done = False
        self.num_packets = sum(s.total for s in self._streams)

    def clone(self) -> "StreamingSource":
        return StreamingSource(
            self.traces, self.params, self.duration_ns,
            seed=self.seed, hash_spec=self.hash_spec,
            chunk_size=self.chunk_size, _flow_hashes=self._flow_hashes,
        )

    # -- the merge ------------------------------------------------------
    def next_chunk(self) -> WorkloadChunk | None:
        while self._out.count < self.chunk_size and not self._merged_done:
            self._merge_round()
        if self._out.count == 0:
            return None
        return self._emit(min(self.chunk_size, self._out.count))

    def _merge_round(self) -> None:
        """Realise segments of the laggard service until the safe
        horizon releases at least one buffered arrival (or all streams
        are exhausted, which flushes everything)."""
        streams = self._streams
        while True:
            laggard, floor_min = -1, _NO_HORIZON
            for sid, stream in enumerate(streams):
                if not stream.exhausted:
                    floor = stream.pending_floor_ns()
                    if floor < floor_min:
                        laggard, floor_min = sid, floor
            if laggard < 0:
                self._release(_NO_HORIZON)
                self._merged_done = True
                return
            times = streams[laggard].next_segment()
            if times.shape[0]:
                self._buffers[laggard].append(times)
            safe = min(
                (s.pending_floor_ns() for s in streams if not s.exhausted),
                default=_NO_HORIZON,
            )
            if self._buffered_before(safe):
                self._release(safe)
                return

    def _buffered_before(self, horizon_ns: int) -> bool:
        for buf in self._buffers:
            # segment arrays arrive in time order, each sorted, so the
            # first element of the first array is the service minimum
            if buf and int(buf[0][0]) < horizon_ns:
                return True
        return False

    def _release(self, horizon_ns: int) -> None:
        """Move every buffered arrival strictly below *horizon_ns* into
        the out queue, headers attached, globally ordered."""
        parts: list[tuple[np.ndarray, ...]] = []
        for sid in range(self.num_services):
            buf = self._buffers[sid]
            if not buf:
                continue
            times = buf[0] if len(buf) == 1 else np.concatenate(buf)
            if horizon_ns >= _NO_HORIZON:
                cut = times.shape[0]
            else:
                cut = int(np.searchsorted(times, horizon_ns, side="left"))
            if cut == 0:
                self._buffers[sid] = [times]
                continue
            self._buffers[sid] = [times[cut:]] if cut < times.shape[0] else []
            take = times[:cut]
            trace = self.traces[sid]
            idx = self._cursors[sid].take(cut)
            local_fids = trace.flow_id[idx]
            parts.append((
                take,
                np.full(cut, sid, dtype=np.int32),
                local_fids + self._flow_offsets[sid],
                trace.size_bytes[idx],
                self._flow_hashes[sid][local_fids],
            ))
        if not parts:
            return
        if len(parts) == 1:
            # one service's prefix is already in time order
            arrival, service, flow, size, fhash = parts[0]
        else:
            arrival, service, flow, size, fhash = (
                np.concatenate([p[i] for p in parts]) for i in range(5)
            )
            # per-service prefixes concatenated in service order + stable
            # argsort == build_workload's global tie-break
            order = np.argsort(arrival, kind="stable")
            arrival = arrival[order]
            service = service[order]
            flow = flow[order]
            size = size[order]
            fhash = fhash[order]
        self._out.push((
            arrival, service, flow, size.astype(np.int32, copy=False), fhash,
            next_sequences(flow, self._seq_next),
        ))

    def _emit(self, n: int) -> WorkloadChunk:
        cols = self._out.take(n)
        base = self._emitted
        self._emitted += n
        return WorkloadChunk(base, *cols)
