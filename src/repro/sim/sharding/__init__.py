"""Sharded multiprocess simulation (conservative-time PDES).

The simulated system is cut into :class:`~repro.sim.sharding.shard.Shard`
partitions — each owning a full :class:`~repro.sim.kernel.SimKernel`
over a filtered clone of the packet source — and advanced by the
:func:`~repro.sim.sharding.coordinator.run_sharded` coordinator over
persistent spawn-context workers.  Two partitioning modes exist:

* **cores** — the core space is partitioned and each shard replays the
  exact packets a single-process run would route into its core group.
  Only statically-mapped schedulers (``shard_static``) qualify; the
  result is **bit-identical** to the single-process report.
* **services** — the service space is partitioned (LAPS); shards march
  in conservative time windows and exchange ``request_core()``
  donations through a mailbox resolved at window barriers.  The result
  is deterministic for a fixed (seed, window_ns, shard count) but not
  identical to a single-process run (donation decisions see
  window-granular, per-shard load).

See ``docs/architecture.md`` ("Sharded execution") for the protocol.
"""

from repro.sim.sharding.aggregate import merge_shard_results
from repro.sim.sharding.coordinator import ShardedRun, run_sharded, sharded_fault_args
from repro.sim.sharding.mailbox import (
    CoreGrant,
    CoreOffer,
    CoreRequest,
    resolve_grants,
)
from repro.sim.sharding.partition import (
    CorePartitionSource,
    ServiceFilterSource,
)
from repro.sim.sharding.shard import Shard, ShardResult, ShardSpec
from repro.sim.sharding.topology import ShardTopology, plan_topology

__all__ = [
    "run_sharded",
    "sharded_fault_args",
    "ShardedRun",
    "Shard",
    "ShardSpec",
    "ShardResult",
    "ShardTopology",
    "plan_topology",
    "CorePartitionSource",
    "ServiceFilterSource",
    "CoreRequest",
    "CoreOffer",
    "CoreGrant",
    "resolve_grants",
    "merge_shard_results",
]
