"""Run telemetry: manifests, composable probes, exporters.

Observability layer for simulation runs.  A run produces two kinds of
evidence, both disabled by default so the hot loop stays tight:

* a :class:`RunManifest` — provenance (seed, config snapshot, package
  version, wall clock, host) that makes any dumped run reproducible;
* time series from a :class:`TelemetryProbe` — composable samplers
  (queue occupancy, progress counters, scheduler stats, reorder gaps)
  recorded on a fixed period, *including* the drain phase.

Dumps are plain files (``manifest.json``, ``report.json``,
``series.ndjson``) written by :func:`write_run` and read back by
:func:`load_run`, so any run or experiment can be re-analysed offline.
"""

from repro.obs.export import (
    RunRecord,
    load_run,
    read_ndjson,
    write_csv,
    write_experiment,
    write_ndjson,
    write_run,
)
from repro.obs.manifest import RunManifest, config_snapshot
from repro.obs.probes import (
    FaultStateSampler,
    ProgressSampler,
    QueueOccupancySampler,
    ReorderSampler,
    Sampler,
    SchedulerSampler,
    TelemetryProbe,
    default_samplers,
)

__all__ = [
    "RunManifest",
    "config_snapshot",
    "Sampler",
    "QueueOccupancySampler",
    "ProgressSampler",
    "SchedulerSampler",
    "ReorderSampler",
    "FaultStateSampler",
    "TelemetryProbe",
    "default_samplers",
    "RunRecord",
    "write_run",
    "load_run",
    "write_experiment",
    "write_ndjson",
    "read_ndjson",
    "write_csv",
]
