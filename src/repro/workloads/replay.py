"""Streaming pcap replay as a :class:`~repro.sim.source.PacketSource`.

:class:`PcapReplaySource` fuses the streaming pcap reader
(:func:`repro.trace.pcap.iter_pcap`) into the chunked source machinery:
records are parsed, 5-tuple-interned and emitted ``chunk_size`` packets
at a time, so a multi-GB capture replays at O(chunk + flows) memory —
the capture itself is never materialised.

Construction makes one cheap **pre-scan** pass (flow interning, packet
count, timeline span: O(flows) state); replay passes then re-stream the
file.  For ``repeat=1`` the emitted sequence is bit-identical to the
materialising oracle::

    native_workload([trace_from_pcap(path)[0]], speedup=speedup)

which the test battery pins.  ``repeat > 1`` loops the capture end to
end (each pass's flows keep their ids, timestamps continue after a
``wrap_gap_ns`` seam), turning a modest capture into an arbitrarily
long replay — the multi-GB-style memory benchmark uses exactly this.

The source contract holds: ``clone`` / ``iter_chunks``,
chunk-size-independent fingerprints, and bit-identical mid-chunk
checkpoint/resume (resume re-streams a fresh clone up to the saved
position).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.errors import ConfigError
from repro.hashing.crc import CRC16_CCITT, CRCSpec
from repro.hashing.five_tuple import FiveTuple, flow_hash_batch
from repro.sim.source import DEFAULT_CHUNK_SIZE, PacketSource, WorkloadChunk
from repro.sim.workload import next_sequences
from repro.trace.pcap import iter_pcap, new_counters

__all__ = ["PcapReplaySource"]


class _PcapMeta:
    """Immutable pre-scan result shared by every clone of one source."""

    __slots__ = (
        "flow_index", "flow_hashes", "usable", "raw_records",
        "pass_span_ns", "counters",
    )

    def __init__(self, path: Path, hash_spec: CRCSpec) -> None:
        self.counters = new_counters()
        self.flow_index: dict[FiveTuple, int] = {}
        keys: list[FiveTuple] = []
        usable = 0
        raw = 0
        prev_ts: int | None = None
        span = 0
        for p in iter_pcap(path, self.counters):
            raw += 1
            if p.key is None:
                continue
            if p.key not in self.flow_index:
                self.flow_index[p.key] = len(keys)
                keys.append(p.key)
            if prev_ts is not None:
                span += max(0, p.ts_ns - prev_ts)
            prev_ts = p.ts_ns
            usable += 1
        if usable == 0:
            raise ConfigError(f"{path}: no usable IPv4 packets to replay")
        self.usable = usable
        self.raw_records = raw
        self.pass_span_ns = span  # sum of clamped gaps over one pass
        self.flow_hashes = flow_hash_batch(
            np.array([k.src_ip for k in keys], dtype=np.uint32),
            np.array([k.dst_ip for k in keys], dtype=np.uint32),
            np.array([k.src_port for k in keys], dtype=np.uint16),
            np.array([k.dst_port for k in keys], dtype=np.uint16),
            np.array([k.protocol for k in keys], dtype=np.uint8),
            spec=hash_spec,
        ).astype(np.int64)


class PcapReplaySource(PacketSource):
    """Replay a pcap(.gz) capture at its recorded gaps, chunk by chunk.

    Parameters
    ----------
    path:
        The capture (``.pcap`` or ``.pcap.gz``).
    chunk_size:
        Packets per emitted chunk.
    speedup:
        Divides every gap (>1 plays faster, offering more load).
    repeat:
        Number of end-to-end passes over the capture.
    wrap_gap_ns:
        Raw (pre-speedup) gap inserted at each pass seam.
    hash_spec:
        CRC spec for the per-flow steering hash (must match the
        scheduler's).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        chunk_size: int | None = DEFAULT_CHUNK_SIZE,
        speedup: float = 1.0,
        repeat: int = 1,
        wrap_gap_ns: int = 1_000,
        hash_spec: CRCSpec = CRC16_CCITT,
        _meta: _PcapMeta | None = None,
    ) -> None:
        super().__init__()
        if chunk_size is not None and chunk_size <= 0:
            raise ConfigError(f"chunk size must be positive, got {chunk_size}")
        if speedup <= 0:
            raise ConfigError(f"speedup must be positive, got {speedup}")
        if repeat < 1:
            raise ConfigError(f"repeat must be >= 1, got {repeat}")
        if wrap_gap_ns < 0:
            raise ConfigError(f"wrap gap must be >= 0, got {wrap_gap_ns}")
        self.path = Path(path)
        self.chunk_size = chunk_size
        self.speedup = float(speedup)
        self.repeat = int(repeat)
        self.wrap_gap_ns = int(wrap_gap_ns)
        self.hash_spec = hash_spec
        self._meta = _meta if _meta is not None else _PcapMeta(self.path, hash_spec)

        self.num_packets = self._meta.usable * self.repeat
        self.num_flows = len(self._meta.flow_index)
        self.num_services = 1
        total_raw_ns = (
            self.repeat * self._meta.pass_span_ns
            + (self.repeat - 1) * self.wrap_gap_ns
        )
        # same rounding as the oracle: int64(float(cum) / speedup) + 1
        self.duration_ns = int(total_raw_ns / self.speedup) + 1
        self._records = None  # lazily opened record iterator
        self._pass = 0
        self._cum_ns = 0  # raw (pre-speedup) cumulative gap, all passes
        self._prev_ts: int | None = None
        self._emitted = 0
        self._seq_next = np.zeros(self.num_flows, dtype=np.int64)

    @property
    def counters(self) -> dict[str, int]:
        """Parse/skip counters from the pre-scan pass."""
        return dict(self._meta.counters)

    def next_chunk(self) -> WorkloadChunk | None:
        if self._emitted >= self.num_packets:
            return None
        budget = self.num_packets - self._emitted
        if self.chunk_size is not None:
            budget = min(budget, self.chunk_size)
        if self._records is None:
            self._records = iter_pcap(self.path)

        meta = self._meta
        cum: list[int] = []
        fids: list[int] = []
        sizes: list[int] = []
        got = 0
        while got < budget:
            p = next(self._records, None)
            if p is None:  # pass ended; start the next one
                self._pass += 1
                self._prev_ts = None
                self._records = iter_pcap(self.path)
                continue
            if p.key is None:
                continue
            if self._prev_ts is None:
                # first usable packet: gap 0 on the very first pass,
                # the wrap seam on every later one
                gap = 0 if self._pass == 0 and self._cum_ns == 0 else self.wrap_gap_ns
            else:
                gap = max(0, p.ts_ns - self._prev_ts)
            self._prev_ts = p.ts_ns
            self._cum_ns += gap
            cum.append(self._cum_ns)
            fids.append(meta.flow_index[p.key])
            sizes.append(max(1, p.wire_len))
            got += 1

        fid_arr = np.asarray(fids, dtype=np.int64)
        # same elementwise rounding as cumsum(gaps)/speedup -> int64
        arrival = (np.asarray(cum, dtype=np.int64) / self.speedup).astype(np.int64)
        seq = next_sequences(fid_arr, self._seq_next)
        chunk = WorkloadChunk(
            self._emitted,
            arrival,
            np.zeros(got, dtype=np.int32),
            fid_arr,
            np.asarray(sizes, dtype=np.int32),
            meta.flow_hashes[fid_arr],
            seq,
        )
        self._emitted += got
        return chunk

    def clone(self) -> "PcapReplaySource":
        return PcapReplaySource(
            self.path,
            chunk_size=self.chunk_size,
            speedup=self.speedup,
            repeat=self.repeat,
            wrap_gap_ns=self.wrap_gap_ns,
            hash_spec=self.hash_spec,
            _meta=self._meta,
        )
