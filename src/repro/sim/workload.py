"""Workload assembly: merge per-service arrival processes with trace
headers into the flat arrays the simulator's hot loop consumes.

Following the paper's methodology, *rates* come from the Holt-Winters
model while *headers* (flow ids, sizes) come from a separate trace per
service, consumed in trace order — so realistic flow interleaving and
burstiness survive the re-pacing.  Flow ids are re-based per service so
the global id space stays dense and service-disjoint (a flow belongs to
exactly one service, as in the paper's workload model).

The workload also carries each packet's pre-computed CRC16 flow hash
(one vectorised batch per service) and per-flow-packet sequence numbers
for the reorder detector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.hashing.crc import CRC16_CCITT, CRCSpec
from repro.hashing.five_tuple import flow_hash_batch
from repro.sim.generator import HoltWintersParams, arrival_times, build_rate_model
from repro.trace.trace import Trace
from repro.util.rng import spawn_rngs
from repro.util.sorting import stable_order

__all__ = ["Workload", "build_workload", "service_flow_hashes"]


@dataclass(frozen=True)
class Workload:
    """Flat, time-sorted packet arrays ready for simulation.

    All arrays share one length (packet count):

    * ``arrival_ns`` — sorted int64 arrival instants;
    * ``service_id`` — int32 service per packet;
    * ``flow_id`` — int64 globally-dense flow id;
    * ``size_bytes`` — int32 wire size;
    * ``flow_hash`` — int64 CRC16 (or other) hash of the flow key;
    * ``seq`` — int64 per-flow packet sequence number (0-based).

    ``num_flows``/``num_services`` size the simulator's state arrays.
    """

    arrival_ns: np.ndarray
    service_id: np.ndarray
    flow_id: np.ndarray
    size_bytes: np.ndarray
    flow_hash: np.ndarray
    seq: np.ndarray
    num_flows: int
    num_services: int
    duration_ns: int

    def __post_init__(self) -> None:
        n = self.arrival_ns.shape[0]
        for name in ("service_id", "flow_id", "size_bytes", "flow_hash", "seq"):
            if getattr(self, name).shape[0] != n:
                raise ConfigError(f"workload column {name} length mismatch")
        if n:
            if np.any(np.diff(self.arrival_ns) < 0):
                raise ConfigError("arrival times must be sorted")
            if int(self.flow_id.max()) >= self.num_flows:
                raise ConfigError("flow id out of range")
            if int(self.service_id.max()) >= self.num_services:
                raise ConfigError("service id out of range")

    @property
    def num_packets(self) -> int:
        return int(self.arrival_ns.shape[0])

    def __len__(self) -> int:
        return self.num_packets

    def offered_rate_pps(self) -> float:
        """Mean offered rate over the workload duration."""
        if self.duration_ns <= 0:
            return 0.0
        return self.num_packets / (self.duration_ns / 1e9)

    @classmethod
    def from_chunks(
        cls,
        chunks: list,
        *,
        num_flows: int,
        num_services: int,
        duration_ns: int,
    ) -> "Workload":
        """Assemble a workload from consecutive
        :class:`~repro.sim.source.WorkloadChunk` column sets (anything
        with the six packet-column attributes works)."""

        def col(name: str, dtype) -> np.ndarray:
            if not chunks:
                return np.empty(0, dtype=dtype)
            return np.concatenate([getattr(c, name) for c in chunks])

        return cls(
            arrival_ns=col("arrival_ns", np.int64),
            service_id=col("service_id", np.int32),
            flow_id=col("flow_id", np.int64),
            size_bytes=col("size_bytes", np.int32),
            flow_hash=col("flow_hash", np.int64),
            seq=col("seq", np.int64),
            num_flows=num_flows,
            num_services=num_services,
            duration_ns=duration_ns,
        )


def next_sequences(flow: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Per-flow 0-based sequence numbers in arrival order, continuing
    *counters* (indexed by flow id, advanced in place):
    ``seq[i] = counters[f] + #{j < i : flow[j] == f}`` for ``f =
    flow[i]``.

    The packets are put in (flow, position) order by one exact sort
    (:func:`~repro.util.sorting.stable_order`); each flow's run then
    counts up from its counter.  Streamed sources number each released
    batch with their running counters; a whole workload starts from
    zeros (:func:`_per_flow_sequences`).
    """
    n = flow.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    order = stable_order((flow,))
    sorted_flow = flow[order]
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_flow[1:], sorted_flow[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    run_lens = np.diff(np.append(starts, n))
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, run_lens)
    run_flows = sorted_flow[starts]
    bases = counters[run_flows]
    counters[run_flows] = bases + run_lens
    seq = np.empty(n, dtype=np.int64)
    seq[order] = np.repeat(bases, run_lens) + within
    return seq


def _per_flow_sequences(flow_id: np.ndarray, num_flows: int) -> np.ndarray:
    """A whole workload's per-flow sequence numbers:
    ``seq[i] = #{j < i : flow_id[j] == flow_id[i]}``."""
    return next_sequences(flow_id, np.zeros(num_flows, dtype=np.int64))


def service_flow_hashes(trace: Trace, hash_spec: CRCSpec = CRC16_CCITT) -> np.ndarray:
    """Per-flow hash table of one service's trace (one vectorised CRC
    batch over the flow 5-tuples); chunk assembly then indexes it by
    local flow id, so streamed and materialized builds hash identically.

    The table is read-only: source clones share it.
    """
    hashes = flow_hash_batch(
        trace.flows_src_ip, trace.flows_dst_ip,
        trace.flows_src_port, trace.flows_dst_port, trace.flows_proto,
        spec=hash_spec,
    ).astype(np.int64)
    hashes.flags.writeable = False
    return hashes


def build_workload(
    traces: list[Trace],
    params: list[HoltWintersParams],
    duration_ns: int,
    seed: int | np.random.Generator | None = 0,
    hash_spec: CRCSpec = CRC16_CCITT,
) -> Workload:
    """Build a multi-service workload.

    *traces* and *params* are parallel (one per service).  Headers are
    taken from each service's trace in order, wrapping around if the
    arrival process outruns the trace (the wrap preserves flow ids, so
    statistics remain consistent).
    """
    if not traces:
        raise ConfigError("need at least one service trace")
    if len(traces) != len(params):
        raise ConfigError(
            f"{len(traces)} traces vs {len(params)} parameter rows"
        )
    if duration_ns <= 0:
        raise ConfigError(f"duration must be positive, got {duration_ns}")
    rngs = spawn_rngs(seed, len(traces))

    per_service: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    flow_offset = 0
    for sid, (trace, p, rng) in enumerate(zip(traces, params, rngs)):
        if trace.num_packets == 0:
            raise ConfigError(f"service {sid} has an empty trace")
        times = arrival_times(build_rate_model(p), duration_ns, rng)
        k = times.shape[0]
        idx = trace.header_cursor().take(k)
        local_fids = trace.flow_id[idx]
        fids = local_fids + flow_offset
        sizes = trace.size_bytes[idx]
        pkt_hashes = service_flow_hashes(trace, hash_spec)[local_fids]
        per_service.append((times, fids, sizes, pkt_hashes))
        flow_offset += trace.num_flows

    arrival = np.concatenate([s[0] for s in per_service])
    service = np.concatenate(
        [np.full(s[0].shape[0], sid, dtype=np.int32) for sid, s in enumerate(per_service)]
    )
    flow = np.concatenate([s[1] for s in per_service])
    size = np.concatenate([s[2] for s in per_service]).astype(np.int32)
    fhash = np.concatenate([s[3] for s in per_service])

    order = np.argsort(arrival, kind="stable")
    arrival = arrival[order]
    service = service[order]
    flow = flow[order]
    size = size[order]
    fhash = fhash[order]
    seq = _per_flow_sequences(flow, flow_offset)

    return Workload(
        arrival_ns=arrival,
        service_id=service,
        flow_id=flow,
        size_bytes=size,
        flow_hash=fhash,
        seq=seq,
        num_flows=flow_offset,
        num_services=len(traces),
        duration_ns=duration_ns,
    )
