"""repro — reproduction of "Flow Migration on Multicore Network
Processors: Load Balancing While Minimizing Packet Reordering"
(Iqbal, Holt, Ryoo, de Veciana, John — ICPP 2013).

The package implements the paper's LAPS scheduler (per-service map
tables over incremental hashing, migration of AFD-detected aggressive
flows, dynamic core allocation) together with every substrate its
evaluation depends on: CRC/Toeplitz hashing, a service/task-graph
model, synthetic heavy-tailed traces plus pcap ingest, a discrete-event
network-processor simulator, the FCFS/AFS/static-hash baselines, and an
experiment harness regenerating each of the paper's figures.

Quickstart::

    import repro

    trace = repro.preset_trace("caida-1", num_packets=50_000)
    wl = repro.build_workload(
        [trace], [repro.HoltWintersParams(a=2e6)], duration_ns=repro.units.ms(20)
    )
    report = repro.simulate(wl, repro.make_scheduler("laps"),
                            repro.SimConfig(num_cores=8))
    print(report.as_row())
"""

from repro import units
from repro.errors import (
    CapacityError,
    ConfigError,
    ReproError,
    SchedulerError,
    SimulationError,
    TraceError,
    TraceFormatError,
)
from repro.hashing import (
    CRC16_CCITT,
    FiveTuple,
    ToeplitzHasher,
    crc16_ccitt,
    flow_hash,
    flow_hash_batch,
)
from repro.net import (
    MatchRule,
    Service,
    ServiceClassifier,
    ServiceSet,
    build_edge_router_graph,
    default_edge_rules,
    default_services,
    services_from_graph,
)
from repro.trace import (
    Trace,
    concentration,
    generate_trace,
    native_workload,
    preset_trace,
    rank_size,
    SyntheticTraceConfig,
    top_k_flows,
    trace_from_pcap,
)
from repro.core import (
    AFDConfig,
    AggressiveFlowDetector,
    IncrementalHash,
    LAPSConfig,
    LAPSScheduler,
    LAPSTimingModel,
    LFUCache,
)
from repro.schedulers import (
    AFSScheduler,
    ExactTopKDetector,
    FCFSScheduler,
    Scheduler,
    StaticHashScheduler,
    TopKMigrationScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.sim import (
    HoltWinters,
    HoltWintersParams,
    MaterializedSource,
    PacketSource,
    PowerModel,
    RestorationBuffer,
    SimConfig,
    SimReport,
    StreamingSource,
    Workload,
    build_workload,
    restoration_cost,
    simulate,
)
from repro.obs import (
    RunManifest,
    TelemetryProbe,
    load_run,
    write_run,
)
from repro.workloads import (
    DiurnalParams,
    MMPPParams,
    PcapReplaySource,
    SizeDistribution,
    make_workload,
    resolve_trace,
    workload_preset_names,
)

__version__ = "1.0.0"

__all__ = [
    "units",
    # errors
    "ReproError", "ConfigError", "TraceError", "TraceFormatError",
    "SimulationError", "SchedulerError", "CapacityError",
    # hashing
    "CRC16_CCITT", "FiveTuple", "ToeplitzHasher", "crc16_ccitt",
    "flow_hash", "flow_hash_batch",
    # net
    "MatchRule", "Service", "ServiceClassifier", "ServiceSet",
    "build_edge_router_graph", "default_edge_rules", "default_services",
    "services_from_graph",
    # trace
    "Trace", "concentration", "generate_trace", "native_workload",
    "preset_trace", "rank_size", "SyntheticTraceConfig", "top_k_flows",
    "trace_from_pcap",
    # core (LAPS)
    "AFDConfig", "AggressiveFlowDetector", "IncrementalHash",
    "LAPSConfig", "LAPSScheduler", "LAPSTimingModel", "LFUCache",
    # schedulers
    "AFSScheduler", "ExactTopKDetector", "FCFSScheduler", "Scheduler",
    "StaticHashScheduler", "TopKMigrationScheduler",
    "available_schedulers", "make_scheduler",
    # sim
    "HoltWinters", "HoltWintersParams", "MaterializedSource",
    "PacketSource", "PowerModel", "RestorationBuffer",
    "SimConfig", "SimReport", "StreamingSource", "Workload",
    "build_workload", "restoration_cost", "simulate",
    # obs (telemetry)
    "RunManifest", "TelemetryProbe", "load_run", "write_run",
    # workloads (internet-scale library)
    "SizeDistribution", "MMPPParams", "DiurnalParams", "PcapReplaySource",
    "make_workload", "resolve_trace", "workload_preset_names",
    "__version__",
]
