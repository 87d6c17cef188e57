"""LAPS — the Locality Aware Packet Scheduler (paper Sec. III).

Per arriving packet (Sec. III-E):

1. **Migration table first**: a migrated flow goes where the migration
   table says (exact match overrides the hash).
2. Otherwise the packet's CRC16 hash indexes the **per-service map
   table** (incremental hashing over the service's bucket list).
3. The **AFD** observes the packet in the background (optionally
   sampled).
4. If the hash target is overloaded (queue ≥ ``high_threshold``), the
   load balancer of Listing 1 runs: find the service's least-loaded
   core; if it has headroom and the flow hits in the AFC, migrate the
   flow there (and invalidate its AFC entry); if *no* core of the
   service has headroom, ``request_core()`` — the allocator donates the
   longest-surplus core of another service, both map tables are updated
   via incremental hashing, and the packet is re-looked-up.

Idle timers (Sec. III-D) run on the allocator's quietness clock: per
routed packet, the scheduler resets a core's clock when its occupancy
reaches ``busy_occupancy`` (the rule of ``CoreAllocator.note_load``),
and a core whose clock is older than ``idle_threshold_ns`` is surplus
and can be donated.

Steps 1, 2 and the clock update read the tables' fields in place
rather than through their methods: every packet takes this path, and
the fields it reads are named in each table's class docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.afd import AFDConfig, AggressiveFlowDetector
from repro.core.allocator import CoreAllocator
from repro.core.map_table import ServiceMapTable
from repro.core.migration import MigrationTable
from repro.errors import ConfigError, SchedulerError
from repro.schedulers.base import Scheduler, register_scheduler
from repro import units

__all__ = ["LAPSConfig", "LAPSScheduler"]


@dataclass(frozen=True)
class LAPSConfig:
    """LAPS policy knobs.

    ``high_threshold`` is the queue occupancy (in descriptors) at which
    a core counts as overloaded; the paper uses a threshold on the
    32-descriptor input queues.  ``idle_threshold_ns`` is the
    ``idle_th`` of Sec. III-D.  ``migration_table_entries`` bounds the
    exact-match override CAM.
    """

    num_services: int = 4
    high_threshold: int = 24
    idle_threshold_ns: int = units.us(200)
    migration_table_entries: int = 256
    pin_weight: int = 16
    #: The scheduling AFD raises the promotion threshold above the
    #: detection-experiment default: a migrated elephant must re-earn
    #: its AFC slot with 64 annex hits, which bounds how often any flow
    #: can migrate (the paper's "minimum flow migrations" goal).
    afd: AFDConfig = field(default_factory=lambda: AFDConfig(promote_threshold=64))

    def __post_init__(self) -> None:
        if self.num_services <= 0:
            raise ConfigError(f"num_services must be positive, got {self.num_services}")
        if self.high_threshold <= 0:
            raise ConfigError(f"high_threshold must be positive, got {self.high_threshold}")
        if self.idle_threshold_ns < 0:
            raise ConfigError(f"idle_threshold_ns must be >= 0, got {self.idle_threshold_ns}")
        if self.migration_table_entries <= 0:
            raise ConfigError(
                f"migration_table_entries must be positive, got {self.migration_table_entries}"
            )
        if self.pin_weight < 0:
            raise ConfigError(f"pin_weight must be >= 0, got {self.pin_weight}")


@register_scheduler("laps")
class LAPSScheduler(Scheduler):
    """The paper's scheduler.  See module docstring for the algorithm.

    LAPS has no vectorized plan: every packet is decided in
    :meth:`select_core`, because the Listing 1 balancer reads live queue
    occupancy.  For the same reason a core-partitioned shard cannot
    reproduce a single-process run, so LAPS shards *by service*
    instead, through the :meth:`configure_shard` window/mailbox
    protocol below.
    """

    def __init__(
        self,
        config: LAPSConfig | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        super().__init__()
        self.config = config or LAPSConfig()
        self._rng = rng
        self.afd = AggressiveFlowDetector(self.config.afd, rng=rng)
        self.migration = MigrationTable(self.config.migration_table_entries)
        self.allocator: CoreAllocator | None = None
        self.map_tables: dict[int, ServiceMapTable] = {}
        self._zero_counters()
        #: preset core ownership for a service-partitioned shard (global
        #: core ids; ``-1`` marks cores owned by other shards), set by
        #: :meth:`configure_shard`; ``None`` on single-process runs
        self.shard_ownership: list[int] | None = None
        #: first unmet ``request_core`` per service this window
        #: (service_id -> t_ns of the first denial)
        self._shard_denials: dict[int, int] = {}

    # ------------------------------------------------------------------
    def configure_shard(
        self, num_services: int, ownership: list[int]
    ) -> None:
        """Reshape this scheduler into one service-partitioned shard.

        *num_services* is the shard's **local** service count (the
        shard's packet source relabels its service slice to dense local
        ids) and *ownership* maps every **global** core id to the local
        service that starts with it, or ``-1`` for cores owned by other
        shards.  Must be called before :meth:`bind`.  The presence of
        this method is what routes LAPS through the sharded runner's
        service mode — the window/mailbox protocol drives the
        ``shard_*`` methods below at conservative-time barriers.
        """
        if self.is_bound:
            raise ConfigError("configure_shard must be called before bind()")
        if num_services <= 0:
            raise ConfigError(f"num_services must be positive, got {num_services}")
        self.config = replace(self.config, num_services=num_services)
        self.shard_ownership = list(ownership)

    # ------------------------------------------------------------------
    def bind(self, loads) -> None:
        super().bind(loads)
        cfg = self.config
        if loads.num_cores < cfg.num_services:
            raise ConfigError(
                f"{loads.num_cores} cores cannot host {cfg.num_services} services"
            )
        if cfg.high_threshold > loads.queue_capacity:
            raise ConfigError(
                f"high_threshold {cfg.high_threshold} exceeds queue capacity "
                f"{loads.queue_capacity}"
            )
        self.allocator = CoreAllocator(
            loads.num_cores, cfg.num_services, cfg.idle_threshold_ns,
            owners=self.shard_ownership,
        )
        self.map_tables = {
            sid: ServiceMapTable(sid, cores)
            for sid, cores in self.allocator.initial_allocation().items()
        }
        self.migration.reset()
        self.afd.reset()
        self._shard_denials.clear()
        self._zero_counters()

    def _zero_counters(self) -> None:
        self.imbalance_events = 0
        self.migrations_installed = 0
        self.core_requests = 0
        self.core_requests_denied = 0
        self.stale_migrations_dropped = 0
        self.cores_failed = 0
        self.cores_recovered = 0
        self.emergency_transfers = 0
        self.unrecovered_failures = 0

    # ------------------------------------------------------------------
    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        cfg = self.config
        try:
            table = self.map_tables[service_id]
        except KeyError:
            raise SchedulerError(
                f"packet of service {service_id} has no map table: LAPS "
                f"is configured with LAPSConfig(num_services="
                f"{cfg.num_services}), services 0..{cfg.num_services - 1}"
            ) from None

        # background AFD update (not on the critical path in hardware)
        self.afd.observe(flow_id)

        # each routed packet feeds the allocator's quietness clock, as
        # CoreAllocator.note_load does
        occ = self._loads.occ
        allocator = self.allocator
        last_busy = allocator._last_busy_ns
        busy = allocator.busy_occupancy

        # 1. migration table has priority over the map table (Sec. III-E
        # step 1): a migrated flow stays pinned.  Re-balancing it on
        # every overload would hot-potato elephants between cores,
        # paying the FM penalty and reordering on every hop.
        pinned = self.migration._entries.get(flow_id)
        if pinned is not None:
            if allocator._owner[pinned] == service_id:
                if occ[pinned] >= busy:
                    last_busy[pinned] = t_ns
                return pinned
            # the pinned core was donated away: entry is stale
            self.migration.remove(flow_id)
            self.stale_migrations_dropped += 1

        # 2. default hash lookup: the linear hash's bucket (Sec. III-C)
        # indexes the service's bucket list
        if flow_hash < 0:
            raise ConfigError(f"hash values must be >= 0, got {flow_hash}")
        lin = table._hash
        m = lin._m
        bucket = flow_hash % m
        if bucket < lin._buckets - m:
            bucket = flow_hash % (2 * m)
        cores = table._cores
        target = cores[bucket]
        load = occ[target]
        if load >= busy:
            last_busy[target] = t_ns

        # 3. load-balancing path (Listing 1)
        high = cfg.high_threshold
        if load >= high:
            self.imbalance_events += 1
            # findMinQ over the service's bucket list
            if min(map(occ.__getitem__, cores)) < high:
                if self.afd.is_aggressive(flow_id):
                    dest = self._placement_target(cores, high)
                    if dest is not None and dest != target:
                        self.migration.add(flow_id, dest)
                        self.afd.invalidate(flow_id)
                        self.migrations_installed += 1
                        return dest
            else:
                # every core of this service is overloaded: none of them
                # can be surplus, so record that before asking for help
                for core in cores:
                    last_busy[core] = t_ns
                if self._request_core(service_id, t_ns):
                    target = table.lookup(flow_hash)
        return target

    def _placement_target(self, cores, high_threshold: int) -> int | None:
        """Destination core for a migrating elephant.

        ``findMinQ`` by occupancy, with one refinement: cores that the
        migration table has already steered elephants to are penalised
        (``pin_weight`` queue slots per pinned flow), because the queue
        of a core that received an elephant microseconds ago has not
        caught up with its new load yet — naive instantaneous-minq
        placement dumps several elephants onto the same core during one
        overload burst and the pins then keep them there.
        """
        occ = self.loads.occ
        pin_weight = self.config.pin_weight
        best = None
        best_score = None
        for c in cores:
            load = occ[c]
            if load >= high_threshold:
                continue
            score = load + pin_weight * self.migration.pins_on(c)
            if best_score is None or score < best_score:
                best, best_score = c, score
        return best

    # ------------------------------------------------------------------
    def _request_core(self, service_id: int, t_ns: int) -> bool:
        """``request_core()`` of Listing 1; returns True when a core was
        added to the service's map table."""
        self.core_requests += 1
        transfer = self.allocator.request_core(service_id, t_ns)
        if transfer is None:
            self.core_requests_denied += 1
            if self.shard_ownership is not None:
                # a shard that cannot help itself asks the fleet: the
                # first denial per service this window becomes a
                # mailbox request at the next barrier
                self._shard_denials.setdefault(service_id, t_ns)
            return False
        if transfer.is_internal:
            # surplus core of the same service unmarked: it is already
            # in the map table and keeps its buckets
            return False
        donor_table = self.map_tables[transfer.donor_service]
        donor_table.remove_core(transfer.core_id)
        # migrated flows pointing at the donated core are now invalid
        self.stale_migrations_dropped += len(self.migration.drop_core(transfer.core_id))
        self.map_tables[service_id].add_core(transfer.core_id)
        return True

    # ------------------------------------------------------------------
    # platform-fault reaction (repro.faults)
    # ------------------------------------------------------------------
    def on_core_down(self, core_id: int, t_ns: int) -> None:
        """Evict a failed core from its service's map table.

        The bucket shrinks through the incremental hash (Sec. III-D's
        core-removal path), so only the dead core's flows remap — the
        same machinery that handles voluntary donation handles the
        involuntary loss.  Migration-table pins onto the core are
        dropped (their flows fall back to the hash).  If the owning
        service just lost its *only* core, a replacement is
        commandeered from the richest other service before the shrink.
        """
        allocator = self.allocator
        if allocator is None:
            return
        owner = allocator.set_offline(core_id)
        if owner < 0:
            # a foreign core of another shard failed: platform events
            # are broadcast to every shard so health state stays
            # consistent, but there is no local map table to fix up
            return
        self.cores_failed += 1
        self.stale_migrations_dropped += len(self.migration.drop_core(core_id))
        table = self.map_tables[owner]
        if core_id not in table:
            return
        if table.num_cores == 1:
            replacement = self._emergency_replacement(owner, t_ns)
            if replacement is None:
                # every other service is itself down to one core: the
                # dead core stays in the table and its flows black-hole
                # (fault drops) until the platform recovers
                self.unrecovered_failures += 1
                return
            table.add_core(replacement)
        table.remove_core(core_id)

    def on_core_up(self, core_id: int, t_ns: int) -> None:
        """Re-admit a recovered core to the service that owned it."""
        allocator = self.allocator
        if allocator is None:
            return
        owner = allocator.set_online(core_id, t_ns)
        if owner < 0:
            return  # foreign core (see on_core_down)
        self.cores_recovered += 1
        table = self.map_tables[owner]
        if core_id not in table:
            table.add_core(core_id)

    def _emergency_replacement(self, service_id: int, t_ns: int) -> int | None:
        """Pull one core out of the largest other service, or None when
        nobody can spare one."""
        donor_sid = None
        for sid, tbl in self.map_tables.items():
            if sid == service_id or tbl.num_cores <= 1:
                continue
            if donor_sid is None or tbl.num_cores > self.map_tables[donor_sid].num_cores:
                donor_sid = sid
        if donor_sid is None:
            return None
        allocator = self.allocator
        donor_table = self.map_tables[donor_sid]
        # the donor must keep at least one *online* core after giving
        candidates = [c for c in donor_table.cores if not allocator.is_offline(c)]
        if len(candidates) < 2:
            return None
        core = self._min_queue_core(candidates)
        allocator.force_transfer(core, service_id)
        donor_table.remove_core(core)
        self.stale_migrations_dropped += len(self.migration.drop_core(core))
        allocator.touch(core, t_ns)
        self.emergency_transfers += 1
        return core

    # ------------------------------------------------------------------
    # cross-shard mailbox protocol (repro.sim.sharding, service mode).
    # The coordinator calls these only at window barriers, when every
    # shard sits at the same instant T with no arrival in flight.
    # ------------------------------------------------------------------
    def shard_unmet_requests(self) -> list[tuple[int, int]]:
        """Drain this window's unmet demand: ``(first_denial_ns,
        service_id)`` per starved service, earliest first."""
        out = sorted((t, sid) for sid, t in self._shard_denials.items())
        self._shard_denials.clear()
        return out

    def shard_surplus(self, t_ns: int) -> list[tuple[int, int, int, int]]:
        """Donation candidates at barrier instant *t_ns*:
        ``(last_busy_ns, core, owner_service, owner_online_cores)`` for
        every owned, online, surplus core whose owner would keep at
        least one other online core.  The shard wrapper further
        excludes cores that are mid-packet or have queued work — a
        core handed over at a barrier must carry no in-flight state.
        """
        alloc = self.allocator
        out = []
        for core in alloc.surplus_cores(t_ns):
            owner = alloc.owner_of(core)
            spare = len(alloc.online_cores_of(owner))
            if spare > 1 and self.map_tables[owner].num_cores > 1:
                out.append((alloc.last_busy_ns(core), core, owner, spare))
        return out

    def shard_grant(self, core_id: int, service_id: int, t_ns: int) -> None:
        """Adopt a core another shard released at this barrier."""
        self.allocator.adopt(core_id, service_id, t_ns)
        self.map_tables[service_id].add_core(core_id)

    def shard_revoke(self, core_id: int, t_ns: int) -> bool:
        """Release a core to the fleet; False when no longer safe
        (the matcher works from barrier-time offers, so a refusal
        means local guards — last-online-core, offline — would be
        violated and the grant must be dropped)."""
        alloc = self.allocator
        owner = alloc.owner_of(core_id)
        if (
            owner < 0
            or alloc.is_offline(core_id)
            or len(alloc.online_cores_of(owner)) <= 1
            or self.map_tables[owner].num_cores <= 1
        ):
            return False
        alloc.release(core_id)
        self.map_tables[owner].remove_core(core_id)
        self.stale_migrations_dropped += len(self.migration.drop_core(core_id))
        return True

    # ------------------------------------------------------------------
    def cores_of(self, service_id: int) -> tuple[int, ...]:
        """Current bucket list of a service (diagnostics)."""
        return self.map_tables[service_id].cores

    def stats(self) -> dict[str, float]:
        alloc = self.allocator
        return {
            "imbalance_events": self.imbalance_events,
            "migrations_installed": self.migrations_installed,
            "core_requests": self.core_requests,
            "core_requests_denied": self.core_requests_denied,
            "core_transfers": alloc.transfers if alloc else 0,
            "internal_reclaims": alloc.internal_reclaims if alloc else 0,
            "stale_migrations_dropped": self.stale_migrations_dropped,
            "afd_promotions": self.afd.promotions,
            "migration_table_evictions": self.migration.evictions,
            "cores_failed": self.cores_failed,
            "cores_recovered": self.cores_recovered,
            "emergency_transfers": self.emergency_transfers,
            "cross_shard_grants": alloc.cross_shard_grants if alloc else 0,
            "cross_shard_releases": alloc.cross_shard_releases if alloc else 0,
        }
