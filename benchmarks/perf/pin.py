"""Regenerate ``expected.json``: the pinned outcome of every workload.

Run from the repository root after changing a workload's inputs (never
to make a failing outcome pass)::

    PYTHONPATH=src python -m benchmarks.perf.pin

For seeds 0 and 1 each workload runs once on the default path and once
on the scalar oracle — ``vectorized=False`` on the heap engine, forced
on every ``simulate`` call including the tournament's — and the two
outcomes must be identical before they are pinned.  ``static-sharded``
is not pinned separately: it must reproduce ``static-stream``'s pin,
which is checked here too.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import repro
import repro.experiments.batch as batch
from benchmarks.perf import workloads
from benchmarks.perf.trace import LIGHT_TARGETS, Tracer

SEEDS = (0, 1)
PINNED = ("static-stream", "laps-edge", "zoo-faults")
OUT = Path(__file__).resolve().parent / "expected.json"


@contextmanager
def scalar_oracle():
    """Force the scalar oracle on every simulate call in the block."""
    plain = repro.simulate

    def forced(*args, **kwargs):
        kwargs.update(vectorized=False, engine="heap")
        return plain(*args, **kwargs)

    saved = (repro.simulate, batch.simulate)
    repro.simulate = batch.simulate = forced
    try:
        yield
    finally:
        repro.simulate, batch.simulate = saved


def outcome(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name]
    inputs = workloads.inputs()
    with Tracer(LIGHT_TARGETS) as tracer:
        state = wl.build(inputs, seed, tracer)
        return wl.run(state, inputs, seed, tracer).outcome


def main() -> int:
    pins: dict = {"inputs": workloads.inputs()}
    for name in PINNED:
        pins[name] = {}
        for seed in SEEDS:
            fast = outcome(name, seed)
            with scalar_oracle():
                oracle = outcome(name, seed)
            if fast != oracle:
                raise SystemExit(f"{name} seed {seed}: default path != scalar oracle")
            pins[name][str(seed)] = fast
            print(f"pinned {name} seed {seed}")
    for seed in SEEDS:
        if outcome("static-sharded", seed) != pins["static-stream"][str(seed)]:
            raise SystemExit(f"static-sharded seed {seed} != static-stream")
    OUT.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
