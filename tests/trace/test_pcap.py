"""Tests for the classic-pcap reader/writer."""

import gzip
import struct

import pytest

from repro.errors import TraceFormatError
from repro.hashing.five_tuple import FiveTuple
from repro.trace.pcap import (
    iter_pcap,
    new_counters,
    parse_pcap_bytes,
    read_pcap,
    trace_from_pcap,
    write_pcap,
)


def sample_packets():
    k1 = FiveTuple.from_strings("10.0.0.1", "192.168.1.1", 1000, 80, 6)
    k2 = FiveTuple.from_strings("10.0.0.2", "192.168.1.2", 2000, 53, 17)
    return [
        (1_000_000_000, k1, 500),
        (1_000_000_500, k2, 128),
        (1_000_001_000, k1, 1500),
    ]


class TestRoundtrip:
    def test_plain_roundtrip(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        packets, counters = read_pcap(path)
        assert counters["total"] == 3
        assert counters["tcp_udp"] == 3
        assert [p.key for p in packets] == [k for _, k, _ in sample_packets()]
        assert [p.ts_ns for p in packets] == [t for t, _, _ in sample_packets()]
        assert [p.wire_len for p in packets] == [500, 128, 1500]

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "t.pcap.gz"
        write_pcap(path, sample_packets())
        # verify it is actually gzipped
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        packets, _ = read_pcap(path)
        assert len(packets) == 3

    def test_microsecond_format(self, tmp_path):
        path = tmp_path / "us.pcap"
        write_pcap(path, sample_packets(), nanosecond=False)
        packets, _ = read_pcap(path)
        # microsecond resolution truncates sub-us digits
        assert packets[1].ts_ns == 1_000_000_000

    def test_trace_from_pcap(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        trace, counters = trace_from_pcap(path)
        assert trace.num_packets == 3
        assert trace.num_flows == 2
        assert trace.flow_id.tolist() == [0, 1, 0]
        assert trace.gap_ns.tolist() == [0, 500, 500]
        assert trace.size_bytes.tolist() == [500, 128, 1500]


class TestParsing:
    def test_too_short_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_pcap_bytes(b"\x00" * 10)

    def test_bad_magic_rejected(self):
        with pytest.raises(TraceFormatError):
            parse_pcap_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)

    def test_truncated_record_rejected(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        data = path.read_bytes()
        with pytest.raises(TraceFormatError):
            parse_pcap_bytes(data[:-4])

    def test_little_endian_accepted(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
        packets, counters = parse_pcap_bytes(header)
        assert packets == [] and counters["total"] == 0

    def test_unsupported_linktype_rejected(self):
        header = struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 42)
        with pytest.raises(TraceFormatError):
            parse_pcap_bytes(header)

    def test_non_ip_frame_skipped(self):
        header = struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 1)
        arp = b"\x00" * 12 + struct.pack(">H", 0x0806) + b"\x00" * 28
        rec = struct.pack(">IIII", 0, 0, len(arp), len(arp)) + arp
        packets, counters = parse_pcap_bytes(header + rec)
        assert packets[0].key is None
        assert counters["skipped_non_ip"] == 1

    def test_fragment_skipped(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets()[:1])
        data = bytearray(path.read_bytes())
        # frame starts at 24 + 16; IP header at +14; frag field at +6
        ip_off = 24 + 16 + 14
        data[ip_off + 6 : ip_off + 8] = struct.pack(">H", 0x00FF)  # offset 255
        packets, counters = parse_pcap_bytes(bytes(data))
        assert packets[0].key is None
        assert counters["skipped_fragment"] == 1

    def test_non_tcp_udp_gets_zero_ports(self, tmp_path):
        path = tmp_path / "t.pcap"
        key = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 0, 0, 1)  # ICMP
        write_pcap(path, [(0, key, 100)])
        packets, counters = read_pcap(path)
        assert packets[0].key == key
        assert counters["tcp_udp"] == 0
        assert counters["ipv4"] == 1


class TestRawLinkType:
    def test_raw_ip_frames(self):
        # build a raw-IP pcap by hand
        header = struct.pack(">IHHiIII", 0xA1B23C4D, 2, 4, 0, 0, 65535, 101)
        ip = struct.pack(
            ">BBHHHBBHII", 0x45, 0, 28, 0, 0, 64, 17, 0, 0x0A000001, 0x0A000002
        ) + struct.pack(">HHHH", 5, 6, 8, 0)
        rec = struct.pack(">IIII", 1, 0, len(ip), len(ip)) + ip
        packets, counters = parse_pcap_bytes(header + rec)
        assert counters["tcp_udp"] == 1
        assert packets[0].key.src_port == 5
        assert packets[0].key.protocol == 17


class TestTraceFromPcapGz(object):
    def test_gz_trace(self, tmp_path):
        path = tmp_path / "t.pcap.gz"
        write_pcap(path, sample_packets())
        trace, _ = trace_from_pcap(path, name="mycap")
        assert trace.name == "mycap"
        assert isinstance(gzip.open, object)  # sanity: gz path exercised above

    def test_gz_roundtrip_full_columns(self, tmp_path):
        # write_pcap -> trace_from_pcap through the gzip path must
        # preserve flows, gaps and sizes exactly
        path = tmp_path / "round.pcap.gz"
        write_pcap(path, sample_packets())
        trace, counters = trace_from_pcap(path)
        assert counters["total"] == 3
        assert trace.flow_id.tolist() == [0, 1, 0]
        assert trace.gap_ns.tolist() == [0, 500, 500]
        assert trace.size_bytes.tolist() == [500, 128, 1500]


class TestStreaming:
    """The generator reader (iter_pcap) behind read_pcap."""

    def test_parity_with_read_pcap(self, tmp_path):
        path = tmp_path / "t.pcap.gz"
        write_pcap(path, sample_packets())
        eager, eager_counters = read_pcap(path)
        counters = new_counters()
        streamed = list(iter_pcap(path, counters))
        assert [p.key for p in streamed] == [p.key for p in eager]
        assert [p.ts_ns for p in streamed] == [p.ts_ns for p in eager]
        assert counters == eager_counters

    def test_lazy_header_validation(self, tmp_path):
        # the global header is validated on first next(), not at call
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\xde\xad\xbe\xef" + b"\x00" * 20)
        it = iter_pcap(path)
        with pytest.raises(TraceFormatError, match="magic"):
            next(it)

    def test_truncated_global_header(self, tmp_path):
        path = tmp_path / "short.pcap"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(TraceFormatError, match="too short"):
            list(iter_pcap(path))

    def test_truncated_record_header(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        data = path.read_bytes()
        record = (len(data) - 24) // 3  # equal-size synthesised records
        truncated = tmp_path / "trunc.pcap"
        # keep the first two records plus part of the third's header
        # (records differ in size; the average lands inside the header)
        truncated.write_bytes(data[: 24 + 2 * record + 10])
        it = iter_pcap(truncated)
        assert next(it).wire_len == 500
        assert next(it).wire_len == 128
        with pytest.raises(TraceFormatError, match="truncated record header"):
            next(it)

    def test_truncated_final_record_body(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        truncated = tmp_path / "trunc.pcap"
        truncated.write_bytes(path.read_bytes()[:-4])
        # packets before the cut are yielded, then the error surfaces
        it = iter_pcap(truncated)
        assert next(it).wire_len == 500
        assert next(it).wire_len == 128
        with pytest.raises(TraceFormatError, match="truncated record body"):
            next(it)

    def test_unsupported_linktype(self, tmp_path):
        path = tmp_path / "lt.pcap"
        path.write_bytes(
            struct.pack(">IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 42)
        )
        with pytest.raises(TraceFormatError, match="linktype"):
            list(iter_pcap(path))

    def test_missing_file_is_typed(self, tmp_path):
        path = tmp_path / "missing.pcap"
        with pytest.raises(TraceFormatError, match=f"cannot open pcap {path}") as err:
            trace_from_pcap(path)
        assert isinstance(err.value.__cause__, FileNotFoundError)

    def test_gz_suffix_without_gzip_data_is_typed(self, tmp_path):
        plain = tmp_path / "t.pcap"
        write_pcap(plain, sample_packets())
        path = tmp_path / "t.pcap.gz"
        path.write_bytes(plain.read_bytes())
        with pytest.raises(TraceFormatError, match=f"{path} is not gzip data") as err:
            trace_from_pcap(path)
        assert isinstance(err.value.__cause__, OSError)

    def test_counters_optional(self, tmp_path):
        path = tmp_path / "t.pcap"
        write_pcap(path, sample_packets())
        assert len(list(iter_pcap(path))) == 3
