"""The :class:`Trace` container: a packet stream in structure-of-arrays
form, with persistence.

Traces hold one numpy column per packet field; the simulator and the AFD
harness iterate these columns directly (no per-packet objects are
materialised until the simulation boundary).  Flow ids are dense
integers; the 5-tuple for each flow id sits in the parallel
``flows_*`` arrays.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import TraceFormatError
from repro.hashing.five_tuple import FiveTuple

__all__ = ["HeaderCursor", "Trace"]

_PACKET_COLS = ("flow_id", "size_bytes", "gap_ns")
_FLOW_COLS = ("flows_src_ip", "flows_dst_ip", "flows_src_port", "flows_dst_port", "flows_proto")


class HeaderCursor:
    """A wrap-around reader over a trace's packet headers.

    Workload builders consume each service's trace in order, wrapping
    modulo the trace length when the arrival process outruns it.  The
    cursor makes that consumption incremental: ``take(k)`` returns the
    packet indices of the next *k* headers, and ``position`` counts
    the headers consumed so far.
    """

    __slots__ = ("trace", "position")

    def __init__(self, trace: "Trace") -> None:
        if trace.num_packets == 0:
            raise TraceFormatError("cannot read headers from an empty trace")
        self.trace = trace
        self.position = 0

    def take(self, k: int) -> np.ndarray:
        """Indices (into the trace's packet columns) of the next *k*
        headers, wrapping modulo the trace length."""
        if k < 0:
            raise TraceFormatError(f"cannot take {k} headers")
        pos = self.position
        idx = (pos + np.arange(k, dtype=np.int64)) % self.trace.num_packets
        self.position = pos + int(k)
        return idx


@dataclass
class Trace:
    """A packet trace in structure-of-arrays layout.

    Attributes
    ----------
    flow_id:
        int64 array, dense flow id per packet.
    size_bytes:
        int32 array, wire size per packet.
    gap_ns:
        int64 array, inter-arrival gap before each packet in nanoseconds
        (``gap_ns[0]`` is the offset of the first packet from t=0).
        Absolute timestamps are ``np.cumsum(gap_ns)``.  Replayers are
        free to ignore the native gaps and impose their own rate (the
        paper's generator paces headers from the trace at a modelled
        rate, eq. 1).
    flows_src_ip .. flows_proto:
        Per-flow 5-tuple columns indexed by flow id.
    name:
        Optional human-readable label (e.g. the preset name).
    """

    flow_id: np.ndarray
    size_bytes: np.ndarray
    gap_ns: np.ndarray
    flows_src_ip: np.ndarray
    flows_dst_ip: np.ndarray
    flows_src_port: np.ndarray
    flows_dst_port: np.ndarray
    flows_proto: np.ndarray
    name: str = field(default="")

    def __post_init__(self) -> None:
        self.flow_id = np.ascontiguousarray(self.flow_id, dtype=np.int64)
        self.size_bytes = np.ascontiguousarray(self.size_bytes, dtype=np.int32)
        self.gap_ns = np.ascontiguousarray(self.gap_ns, dtype=np.int64)
        self.flows_src_ip = np.ascontiguousarray(self.flows_src_ip, dtype=np.uint32)
        self.flows_dst_ip = np.ascontiguousarray(self.flows_dst_ip, dtype=np.uint32)
        self.flows_src_port = np.ascontiguousarray(self.flows_src_port, dtype=np.uint16)
        self.flows_dst_port = np.ascontiguousarray(self.flows_dst_port, dtype=np.uint16)
        self.flows_proto = np.ascontiguousarray(self.flows_proto, dtype=np.uint8)
        self.validate()

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check internal consistency; raises :class:`TraceFormatError`."""
        n = self.flow_id.shape[0]
        if self.size_bytes.shape[0] != n or self.gap_ns.shape[0] != n:
            raise TraceFormatError("packet columns have mismatched lengths")
        f = self.flows_src_ip.shape[0]
        for col in _FLOW_COLS[1:]:
            if getattr(self, col).shape[0] != f:
                raise TraceFormatError("flow columns have mismatched lengths")
        if n:
            if self.flow_id.min() < 0:
                raise TraceFormatError("negative flow id")
            if self.flow_id.max() >= f:
                raise TraceFormatError(
                    f"flow id {int(self.flow_id.max())} out of range for {f} flows"
                )
            if self.size_bytes.min() <= 0:
                raise TraceFormatError("packet sizes must be positive")
            if self.gap_ns.min() < 0:
                raise TraceFormatError("inter-arrival gaps must be >= 0")
        elif f:
            # flow table without packets is allowed (empty capture window)
            pass

    def make_read_only(self) -> None:
        """Mark every column ``writeable=False``: a trace shared between
        callers then raises on a write instead of changing for all."""
        for col in _PACKET_COLS + _FLOW_COLS:
            getattr(self, col).flags.writeable = False

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def num_packets(self) -> int:
        return int(self.flow_id.shape[0])

    @property
    def num_flows(self) -> int:
        return int(self.flows_src_ip.shape[0])

    def __len__(self) -> int:
        return self.num_packets

    @property
    def timestamps_ns(self) -> np.ndarray:
        """Absolute arrival times (cumulative sum of gaps)."""
        return np.cumsum(self.gap_ns)

    @property
    def duration_ns(self) -> int:
        """Span from t=0 to the last packet's arrival."""
        if self.num_packets == 0:
            return 0
        return int(self.gap_ns.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.size_bytes.sum(dtype=np.int64))

    def fingerprint(self) -> str:
        """Content hash of every packet and flow column.

        Columns are cast to fixed-width little-endian dtypes before
        hashing, so the digest is stable across platforms and Python /
        numpy versions — it is what the golden preset-fingerprint tests
        pin (the trace *name* is deliberately excluded: two identically
        shaped traces match regardless of labelling).
        """
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for col in _PACKET_COLS + _FLOW_COLS:
            arr = np.ascontiguousarray(getattr(self, col), dtype=np.dtype("<i8"))
            h.update(col.encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    def five_tuple(self, flow_id: int) -> FiveTuple:
        """The 5-tuple of a flow id."""
        if not 0 <= flow_id < self.num_flows:
            raise IndexError(f"flow id {flow_id} out of range")
        return FiveTuple(
            int(self.flows_src_ip[flow_id]),
            int(self.flows_dst_ip[flow_id]),
            int(self.flows_src_port[flow_id]),
            int(self.flows_dst_port[flow_id]),
            int(self.flows_proto[flow_id]),
        )

    def header_cursor(self) -> HeaderCursor:
        """A :class:`HeaderCursor` over this trace's packet headers."""
        return HeaderCursor(self)

    def head(self, n: int) -> "Trace":
        """A trace containing only the first *n* packets (flow table is
        shared in full so flow ids remain valid)."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        return Trace(
            self.flow_id[:n],
            self.size_bytes[:n],
            self.gap_ns[:n],
            self.flows_src_ip,
            self.flows_dst_ip,
            self.flows_src_port,
            self.flows_dst_port,
            self.flows_proto,
            name=f"{self.name}[:{n}]" if self.name else "",
        )

    def concat(self, other: "Trace") -> "Trace":
        """Append *other* after this trace (its flow ids are re-based so
        the two flow populations stay distinct)."""
        offset = self.num_flows
        return Trace(
            np.concatenate([self.flow_id, other.flow_id + offset]),
            np.concatenate([self.size_bytes, other.size_bytes]),
            np.concatenate([self.gap_ns, other.gap_ns]),
            np.concatenate([self.flows_src_ip, other.flows_src_ip]),
            np.concatenate([self.flows_dst_ip, other.flows_dst_ip]),
            np.concatenate([self.flows_src_port, other.flows_src_port]),
            np.concatenate([self.flows_dst_port, other.flows_dst_port]),
            np.concatenate([self.flows_proto, other.flows_proto]),
            name=f"{self.name}+{other.name}",
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_npz(self, path: str | Path) -> None:
        """Persist to a compressed ``.npz`` file."""
        arrays = {col: getattr(self, col) for col in _PACKET_COLS + _FLOW_COLS}
        np.savez_compressed(path, name=np.array(self.name), **arrays)

    @classmethod
    def load_npz(cls, path: str | Path) -> "Trace":
        """Load a trace written by :meth:`save_npz`."""
        try:
            with np.load(path) as data:
                kwargs = {}
                for col in _PACKET_COLS + _FLOW_COLS:
                    if col not in data:
                        raise TraceFormatError(f"{path}: missing column {col!r}")
                    kwargs[col] = data[col]
                name = str(data["name"]) if "name" in data else ""
        except (OSError, ValueError) as exc:
            raise TraceFormatError(f"cannot read trace from {path}: {exc}") from exc
        return cls(name=name, **kwargs)

    def to_csv(self, path: str | Path | io.TextIOBase) -> None:
        """Write a human-readable per-packet CSV (header row included)."""
        close = False
        if isinstance(path, (str, Path)):
            fh = open(path, "w", newline="")
            close = True
        else:
            fh = path
        try:
            writer = csv.writer(fh)
            writer.writerow(
                ["flow_id", "size_bytes", "gap_ns", "src_ip", "dst_ip",
                 "src_port", "dst_port", "proto"]
            )
            fid = self.flow_id
            for i in range(self.num_packets):
                f = int(fid[i])
                writer.writerow(
                    [f, int(self.size_bytes[i]), int(self.gap_ns[i]),
                     int(self.flows_src_ip[f]), int(self.flows_dst_ip[f]),
                     int(self.flows_src_port[f]), int(self.flows_dst_port[f]),
                     int(self.flows_proto[f])]
                )
        finally:
            if close:
                fh.close()

    @classmethod
    def from_packets(
        cls,
        packets: list[tuple[FiveTuple, int, int]],
        name: str = "",
    ) -> "Trace":
        """Build a trace from ``(five_tuple, size_bytes, gap_ns)`` rows,
        interning flow ids in first-seen order."""
        by_key: dict[FiveTuple, int] = {}
        flow_ids = np.empty(len(packets), dtype=np.int64)
        sizes = np.empty(len(packets), dtype=np.int32)
        gaps = np.empty(len(packets), dtype=np.int64)
        keys: list[FiveTuple] = []
        for i, (key, size, gap) in enumerate(packets):
            fid = by_key.get(key)
            if fid is None:
                fid = len(keys)
                by_key[key] = fid
                keys.append(key)
            flow_ids[i] = fid
            sizes[i] = size
            gaps[i] = gap
        return cls(
            flow_ids,
            sizes,
            gaps,
            np.array([k.src_ip for k in keys], dtype=np.uint32),
            np.array([k.dst_ip for k in keys], dtype=np.uint32),
            np.array([k.src_port for k in keys], dtype=np.uint16),
            np.array([k.dst_port for k in keys], dtype=np.uint16),
            np.array([k.protocol for k in keys], dtype=np.uint8),
            name=name,
        )
