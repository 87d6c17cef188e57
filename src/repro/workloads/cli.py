"""Command-line entry point: ``python -m repro.workloads`` /
``repro-workloads``.

Subcommands:

``list``
    The preset catalog (``--json`` emits the machine-readable form CI
    uploads as an artifact).
``show NAME``
    One preset's full description, traces and knobs.
``sample NAME``
    Build a small materialized instance and print its shape (packets,
    flows, offered rate, top-flow share).
``smoke``
    The CI gate: one CDF preset, one MMPP preset and the bundled tiny
    capture, each simulated both materialized and streamed — asserts
    the workload fingerprints and the full SimReports are identical
    across modes, which is the library's core contract.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro import units
from repro.errors import ReproError
from repro.schedulers.base import make_scheduler
from repro.sim.config import SimConfig
from repro.sim.source import workload_fingerprint
from repro.sim.system import simulate
from repro.workloads.registry import (
    WORKLOAD_PRESETS,
    catalog,
    make_workload,
    workload_preset_names,
)

__all__ = ["main"]


def _cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(catalog(), indent=2))
        return 0
    rows = catalog()
    width = max(len(r["name"]) for r in rows)
    print(f"{'name':<{width}}  kind     description")
    for r in rows:
        print(f"{r['name']:<{width}}  {r['kind']:<7}  {r['description']}")
    print("\npcap:<path>  replay    ad-hoc capture replay at recorded gaps")
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    try:
        preset = WORKLOAD_PRESETS[args.name]
    except KeyError:
        print(
            f"unknown preset {args.name!r}: available "
            f"{', '.join(workload_preset_names())}",
            file=sys.stderr,
        )
        return 2
    print(f"name:        {preset.name}")
    print(f"kind:        {preset.kind}")
    print(f"description: {preset.description}")
    print(f"provenance:  {preset.provenance}")
    if preset.traces:
        print(f"traces:      {', '.join(preset.traces)}")
    if preset.pcap is not None:
        print(f"capture:     {preset.pcap.name} (x{preset.repeat} passes)")
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    wl = make_workload(
        args.name,
        duration_ns=units.ms(args.duration_ms),
        trace_packets=args.packets,
        utilisation=args.utilisation,
        seed=args.seed,
    )
    rate_mpps = wl.num_packets / (wl.duration_ns / units.SEC) / 1e6
    top = np.bincount(wl.flow_id, minlength=wl.num_flows)
    print(f"workload:      {args.name}")
    print(f"packets:       {wl.num_packets}")
    print(f"flows:         {wl.num_flows}")
    print(f"services:      {wl.num_services}")
    print(f"duration:      {wl.duration_ns / 1e6:.2f} ms")
    print(f"offered rate:  {rate_mpps:.2f} Mpps")
    print(f"mean size:     {float(wl.size_bytes.mean()):.0f} B")
    print(f"top flow:      {top.max() / max(1, wl.num_packets):.1%} of packets")
    print(f"fingerprint:   {workload_fingerprint(wl)}")
    return 0


#: (preset, chunk_size) cells exercised by ``smoke``: one CDF preset,
#: one MMPP preset, the bundled capture.
_SMOKE_CELLS = (("websearch", 1024), ("websearch-mmpp", 1024), ("replay-tiny", 777))


def _cmd_smoke(args: argparse.Namespace) -> int:
    duration_ns = units.ms(3 if args.quick else 8)
    trace_packets = 4_000 if args.quick else 12_000
    failures = 0
    for name, chunk_size in _SMOKE_CELLS:
        build = dict(
            duration_ns=duration_ns, trace_packets=trace_packets, seed=11,
        )
        wl = make_workload(name, **build)
        src = make_workload(name, stream=True, chunk_size=chunk_size, **build)
        fp_eager = workload_fingerprint(wl)
        fp_stream = src.fingerprint()
        report_eager = simulate(wl, make_scheduler("hash-static"), SimConfig())
        report_stream = simulate(src, make_scheduler("hash-static"), SimConfig())
        ok = fp_eager == fp_stream and report_eager == report_stream
        failures += not ok
        status = "ok" if ok else "MISMATCH"
        print(
            f"{name:16s} packets={wl.num_packets:7d} fp={fp_stream[:12]} "
            f"streamed==materialized: {status}"
        )
        if not ok:
            print(f"  eager fp {fp_eager} vs streamed fp {fp_stream}", file=sys.stderr)
    if failures:
        print(f"{failures} smoke cell(s) failed", file=sys.stderr)
        return 1
    print("workload smoke: all cells bit-identical across modes")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-workloads",
        description="Inspect and exercise the workload library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="preset catalog")
    p_list.add_argument("--json", action="store_true", help="machine-readable")
    p_list.set_defaults(fn=_cmd_list)

    p_show = sub.add_parser("show", help="one preset in detail")
    p_show.add_argument("name")
    p_show.set_defaults(fn=_cmd_show)

    p_sample = sub.add_parser("sample", help="build a preset and print its shape")
    p_sample.add_argument("name")
    p_sample.add_argument("--packets", type=int, default=8_000)
    p_sample.add_argument("--duration-ms", type=float, default=6.0)
    p_sample.add_argument("--utilisation", type=float, default=0.75)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.set_defaults(fn=_cmd_sample)

    p_smoke = sub.add_parser(
        "smoke", help="streamed == materialized across preset families (CI)"
    )
    p_smoke.add_argument("--quick", action="store_true", help="smaller sizes")
    p_smoke.set_defaults(fn=_cmd_smoke)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
