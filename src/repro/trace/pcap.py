"""Classic libpcap file reading/writing with IPv4/TCP/UDP 5-tuple
extraction.

The paper's datasets ship as ``.pcap.gz``; this module lets real
captures be ingested into a :class:`~repro.trace.trace.Trace` unchanged
and, symmetrically, lets tests and examples materialise tiny captures to
exercise the parse path.  Only the classic (non-ng) format is handled:
magic ``0xA1B2C3D4`` (microsecond) and ``0xA1B23C4D`` (nanosecond), both
byte orders, Ethernet-II or raw-IP link types.  ``.gz`` paths are
transparently decompressed.

Non-IPv4 frames and IP fragments with a non-zero offset are skipped (the
scheduler only steers on complete 5-tuples); counts of skipped frames
are reported so silent truncation is visible.
"""

from __future__ import annotations

import gzip
import io
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator

from repro.errors import TraceFormatError
from repro.hashing.five_tuple import FiveTuple
from repro.trace.trace import Trace

__all__ = [
    "PcapPacket", "read_pcap", "write_pcap", "trace_from_pcap",
    "iter_pcap", "parse_pcap_stream", "new_counters",
]

MAGIC_US_BE = 0xA1B2C3D4
MAGIC_NS_BE = 0xA1B23C4D

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW = 101

_ETHERTYPE_IPV4 = 0x0800


@dataclass(frozen=True, slots=True)
class PcapPacket:
    """One parsed capture record."""

    ts_ns: int
    wire_len: int
    key: FiveTuple | None  # None when not an IPv4 TCP/UDP packet


def _open(path: str | Path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


def new_counters() -> dict[str, int]:
    """A fresh skip-counter dict as populated by the parse functions."""
    return {
        "total": 0,
        "ipv4": 0,
        "tcp_udp": 0,
        "skipped_non_ip": 0,
        "skipped_fragment": 0,
        "skipped_short": 0,
    }


def parse_pcap_stream(
    fh: BinaryIO, counters: dict[str, int] | None = None
) -> Iterator[PcapPacket]:
    """Stream records from an open pcap file object, one at a time.

    This is the O(record) core: only the 24-byte global header plus one
    record are ever held in memory, so multi-GB captures can be replayed
    without materialisation.  Yields every record (non-IP ones carry
    ``key=None``); *counters* — a dict from :func:`new_counters` — is
    updated in place as records are consumed, so totals are valid both
    mid-stream and at exhaustion.
    """
    if counters is None:
        counters = new_counters()
    header = fh.read(24)
    if len(header) < 24:
        raise TraceFormatError("pcap too short for a global header")
    magic_be = struct.unpack(">I", header[:4])[0]
    magic_le = struct.unpack("<I", header[:4])[0]
    if magic_be in (MAGIC_US_BE, MAGIC_NS_BE):
        endian = ">"
        magic = magic_be
    elif magic_le in (MAGIC_US_BE, MAGIC_NS_BE):
        endian = "<"
        magic = magic_le
    else:
        raise TraceFormatError(f"not a classic pcap (magic 0x{magic_be:08X})")
    ts_scale = 1 if magic == MAGIC_NS_BE else 1000  # subsecond field -> ns

    (_vmaj, _vmin, _tz, _sig, snaplen, linktype) = struct.unpack(
        endian + "HHiIII", header[4:24]
    )[:6]
    if linktype not in (LINKTYPE_ETHERNET, LINKTYPE_RAW):
        raise TraceFormatError(f"unsupported linktype {linktype}")
    if snaplen == 0:
        raise TraceFormatError("snaplen of 0 is invalid")

    rec_hdr = struct.Struct(endian + "IIII")
    while True:
        hdr = fh.read(16)
        if not hdr:
            return
        if len(hdr) < 16:
            raise TraceFormatError("truncated record header")
        ts_sec, ts_sub, incl_len, orig_len = rec_hdr.unpack(hdr)
        frame = fh.read(incl_len)
        if len(frame) < incl_len:
            raise TraceFormatError("truncated record body")
        counters["total"] += 1
        ts_ns = ts_sec * 1_000_000_000 + ts_sub * ts_scale
        key = _parse_frame(frame, linktype, counters)
        yield PcapPacket(ts_ns=ts_ns, wire_len=orig_len, key=key)


def iter_pcap(
    path: str | Path, counters: dict[str, int] | None = None
) -> Iterator[PcapPacket]:
    """Stream records from a pcap(.gz) file path; see
    :func:`parse_pcap_stream`.  The file is closed when the generator
    is exhausted or dropped.  A file that cannot be opened, or a
    ``.gz`` path that is not gzip data, raises
    :class:`~repro.errors.TraceFormatError`."""
    try:
        fh = _open(path, "rb")
    except OSError as exc:
        raise TraceFormatError(
            f"cannot open pcap {path}: {exc.strerror or exc}"
        ) from exc
    with fh:
        try:
            yield from parse_pcap_stream(fh, counters)
        except gzip.BadGzipFile as exc:
            raise TraceFormatError(f"{path} is not gzip data: {exc}") from exc


def read_pcap(path: str | Path) -> tuple[list[PcapPacket], dict[str, int]]:
    """Parse a pcap(.gz) file (materialising wrapper over
    :func:`iter_pcap`).

    Returns the packet list (every record, including non-IP ones with
    ``key=None``) and a counters dict: ``total``, ``ipv4``, ``tcp_udp``,
    ``skipped_non_ip``, ``skipped_fragment``, ``skipped_short``.
    """
    counters = new_counters()
    packets = list(iter_pcap(path, counters))
    return packets, counters


def parse_pcap_bytes(data: bytes) -> tuple[list[PcapPacket], dict[str, int]]:
    """Parse in-memory pcap bytes; see :func:`read_pcap`."""
    counters = new_counters()
    packets = list(parse_pcap_stream(io.BytesIO(data), counters))
    return packets, counters


def _parse_frame(frame: bytes, linktype: int, counters: dict[str, int]) -> FiveTuple | None:
    if linktype == LINKTYPE_ETHERNET:
        if len(frame) < 14:
            counters["skipped_short"] += 1
            return None
        ethertype = struct.unpack(">H", frame[12:14])[0]
        if ethertype != _ETHERTYPE_IPV4:
            counters["skipped_non_ip"] += 1
            return None
        ip = frame[14:]
    else:  # raw IP
        ip = frame
    if len(ip) < 20:
        counters["skipped_short"] += 1
        return None
    vihl = ip[0]
    if vihl >> 4 != 4:
        counters["skipped_non_ip"] += 1
        return None
    ihl = (vihl & 0x0F) * 4
    if ihl < 20 or len(ip) < ihl:
        counters["skipped_short"] += 1
        return None
    counters["ipv4"] += 1
    flags_frag = struct.unpack(">H", ip[6:8])[0]
    if flags_frag & 0x1FFF:  # non-first fragment: no L4 header
        counters["skipped_fragment"] += 1
        return None
    proto = ip[9]
    src_ip, dst_ip = struct.unpack(">II", ip[12:20])
    if proto not in (6, 17):
        # still a valid IPv4 flow; ports are zero for other protocols
        return FiveTuple(src_ip, dst_ip, 0, 0, proto)
    l4 = ip[ihl:]
    if len(l4) < 4:
        counters["skipped_short"] += 1
        return None
    src_port, dst_port = struct.unpack(">HH", l4[:4])
    counters["tcp_udp"] += 1
    return FiveTuple(src_ip, dst_ip, src_port, dst_port, proto)


def write_pcap(
    path: str | Path,
    packets: list[tuple[int, FiveTuple, int]],
    *,
    nanosecond: bool = True,
) -> None:
    """Write ``(ts_ns, key, wire_len)`` rows as a classic pcap(.gz).

    Frames are synthesised as Ethernet-II + IPv4 + minimal TCP/UDP
    headers; payload beyond the headers is omitted (snap), ``orig_len``
    carries the full wire length so byte counts round-trip.
    """
    buf = io.BytesIO()
    magic = MAGIC_NS_BE if nanosecond else MAGIC_US_BE
    buf.write(struct.pack(">IHHiIII", magic, 2, 4, 0, 0, 65535, LINKTYPE_ETHERNET))
    for ts_ns, key, wire_len in packets:
        frame = _build_frame(key, wire_len)
        ts_sec, rem = divmod(ts_ns, 1_000_000_000)
        ts_sub = rem if nanosecond else rem // 1000
        buf.write(struct.pack(">IIII", ts_sec, ts_sub, len(frame), max(wire_len, len(frame))))
        buf.write(frame)
    with _open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _build_frame(key: FiveTuple, wire_len: int) -> bytes:
    eth = b"\x02\x00\x00\x00\x00\x01" + b"\x02\x00\x00\x00\x00\x02" + struct.pack(">H", _ETHERTYPE_IPV4)
    l4_len = 20 if key.protocol == 6 else 8
    total_len = max(20 + l4_len, min(wire_len - 14, 65535))
    ip = struct.pack(
        ">BBHHHBBHII",
        0x45, 0, total_len, 0, 0, 64, key.protocol, 0, key.src_ip, key.dst_ip,
    )
    if key.protocol == 6:
        l4 = struct.pack(">HHIIBBHHH", key.src_port, key.dst_port, 0, 0, 5 << 4, 0, 0, 0, 0)
    elif key.protocol == 17:
        l4 = struct.pack(">HHHH", key.src_port, key.dst_port, 8, 0)
    else:
        l4 = b""
    return eth + ip + l4


def trace_from_pcap(path: str | Path, name: str = "") -> tuple[Trace, dict[str, int]]:
    """Read a pcap(.gz) into a :class:`Trace` (IPv4 packets only).

    Native gaps are derived from capture timestamps (first packet at its
    offset from itself, i.e. gap 0).  Returns the trace and the skip
    counters from :func:`read_pcap`.  Records are consumed through the
    streaming reader, so only the usable rows are ever materialised.
    """
    counters = new_counters()
    rows: list[tuple[FiveTuple, int, int]] = []
    prev_ts: int | None = None
    for p in iter_pcap(path, counters):
        if p.key is None:
            continue
        gap = 0 if prev_ts is None else max(0, p.ts_ns - prev_ts)
        prev_ts = p.ts_ns
        rows.append((p.key, max(1, p.wire_len), gap))
    trace = Trace.from_packets(rows, name=name or str(path))
    return trace, counters
