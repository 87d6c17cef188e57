"""Trace tooling CLI: ``python -m repro.trace``.

Subcommands:

* ``generate <preset> <out.npz>`` — materialise a synthetic preset;
* ``convert <in.pcap[.gz]> <out.npz>`` — ingest a capture;
* ``analyze <trace.npz | preset-name>`` — print the flow-skew summary
  and the top flows (the offline analysis of Sec. V-B);
* ``export-pcap <trace.npz | preset-name> <out.pcap[.gz]>`` — write a
  trace back out as a capture (header-only frames).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.trace.analysis import concentration, flow_sizes, top_k_flows
from repro.trace.pcap import trace_from_pcap, write_pcap
from repro.trace.synthetic import PRESETS, preset_trace
from repro.trace.trace import Trace
from repro.util.tables import format_table

__all__ = ["main"]


def _load(spec: str) -> Trace:
    """A trace from an .npz path or a preset name."""
    if spec in PRESETS:
        return preset_trace(spec)
    path = Path(spec)
    return Trace.load_npz(path)


def _cmd_generate(args) -> int:
    trace = preset_trace(args.preset, num_packets=args.packets)
    trace.save_npz(args.out)
    print(f"wrote {args.out}: {trace.num_packets} packets, "
          f"{trace.num_flows} flows")
    return 0


def _cmd_convert(args) -> int:
    trace, counters = trace_from_pcap(args.pcap)
    trace.save_npz(args.out)
    print(f"parsed {counters['total']} frames "
          f"({counters['ipv4']} IPv4, {counters['tcp_udp']} TCP/UDP)")
    print(f"wrote {args.out}: {trace.num_packets} packets, "
          f"{trace.num_flows} flows")
    return 0


def _cmd_analyze(args) -> int:
    trace = _load(args.trace)
    stats = concentration(trace, by=args.by)
    print(format_table(
        ["metric", "value"],
        [[k, round(v, 4)] for k, v in stats.items()],
        title=f"{trace.name or args.trace}: {trace.num_packets} packets, "
              f"{trace.num_flows} flows",
    ))
    sizes = flow_sizes(trace, by=args.by)
    top = top_k_flows(trace, args.top, by=args.by)
    rows = [
        [rank + 1, fid, int(sizes[fid]), str(trace.five_tuple(fid))]
        for rank, fid in enumerate(top)
    ]
    print()
    print(format_table(
        ["rank", "flow", args.by, "5-tuple"],
        rows,
        title=f"top {args.top} flows by {args.by}",
    ))
    return 0


def _cmd_export_pcap(args) -> int:
    trace = _load(args.trace)
    t_ns = 0
    packets = []
    for i in range(trace.num_packets):
        t_ns += int(trace.gap_ns[i])
        packets.append(
            (t_ns, trace.five_tuple(int(trace.flow_id[i])),
             int(trace.size_bytes[i]))
        )
    write_pcap(args.out, packets)
    print(f"wrote {args.out}: {len(packets)} frames")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialise a synthetic preset")
    gen.add_argument("preset", choices=sorted(PRESETS))
    gen.add_argument("out", type=Path)
    gen.add_argument("--packets", type=int, default=None)
    gen.set_defaults(func=_cmd_generate)

    conv = sub.add_parser("convert", help="pcap(.gz) -> trace npz")
    conv.add_argument("pcap", type=Path)
    conv.add_argument("out", type=Path)
    conv.set_defaults(func=_cmd_convert)

    ana = sub.add_parser("analyze", help="flow-skew summary + top flows")
    ana.add_argument("trace", help="an .npz path or a preset name")
    ana.add_argument("--by", choices=("bytes", "packets"), default="bytes")
    ana.add_argument("--top", type=int, default=16)
    ana.set_defaults(func=_cmd_analyze)

    exp = sub.add_parser("export-pcap", help="trace -> pcap(.gz)")
    exp.add_argument("trace", help="an .npz path or a preset name")
    exp.add_argument("out", type=Path)
    exp.set_defaults(func=_cmd_export_pcap)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
