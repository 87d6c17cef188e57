"""Dynamic allocation of cores to services — paper Sec. III-C/D.

Initially cores are divided equally among services.  The allocator then
tracks, per core:

* **ownership** — which service's map table the core sits in;
* **quietness** — the last time the core had meaningful backlog.  The
  paper starts a timer when a core's input queue drains and marks the
  core *surplus* at ``idle_th``.  Taken literally (any enqueue resets
  the timer) a core receiving even a trickle of hash-spread packets
  would never be marked, so this model uses the natural refinement:
  the timer is reset only when the core's queue occupancy reaches
  ``busy_occupancy`` descriptors — i.e. *surplus* means "no real
  backlog for ``idle_threshold_ns``", which is exactly the condition
  under which donating the core is safe (Sec. III-D argues the victim
  service is "only lightly loaded anyway").

``request_core`` implements the policy: a service that needs capacity
first *unmarks* one of its own surplus cores (free — no context switch,
no table change); otherwise it takes the core that has been quiet
**longest** from another service ("least utility for the victim
service"), which the caller must then move between map tables.

The allocator also tracks **offline** cores (platform faults injected
by :mod:`repro.faults`): an offline core keeps its owner — so it can
rejoin the same service's map table on recovery — but is excluded from
surplus lists, donations and transfers, and never counts toward a
donor's "last core" guard.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.errors import ConfigError, SchedulerError

__all__ = ["CoreAllocator", "CoreTransfer"]


@dataclass(frozen=True, slots=True)
class CoreTransfer:
    """Result of a granted core request."""

    core_id: int
    donor_service: int
    recipient_service: int

    @property
    def is_internal(self) -> bool:
        """True when the service reclaimed its own surplus core (no map
        table update or context switch needed)."""
        return self.donor_service == self.recipient_service


class CoreAllocator:
    """Ownership + surplus bookkeeping for a pool of cores.

    ``LAPSScheduler.select_core`` reads three fields in place on every
    packet: ``_owner[c]`` (core c's service, ``-1`` for a foreign
    core), ``busy_occupancy``, and the quietness clock
    ``_last_busy_ns[c]``, which it also writes as :meth:`note_load`
    and :meth:`touch` would.

    ``_quiet_floor`` is a lower bound on the clocks of the online,
    owned cores, so :meth:`request_core` denies without a scan while
    ``t_ns - _quiet_floor < idle_threshold_ns``.  A full scan that finds
    no surplus core raises it to the current minimum (capped at the
    request instant); every writer here lowers it to what it writes, a
    core that leaves the set can only raise the minimum, and the
    in-place writes carry the dispatch instant, which is never earlier
    than the last request's.
    """

    #: allocators unpickled from checkpoints taken before the floor
    #: existed start from 0, below every clock
    _quiet_floor = 0

    def __init__(
        self,
        num_cores: int,
        num_services: int,
        idle_threshold_ns: int,
        busy_occupancy: int = 4,
        owners: list[int] | None = None,
    ) -> None:
        if num_cores <= 0:
            raise ConfigError(f"need at least one core, got {num_cores}")
        if num_services <= 0:
            raise ConfigError(f"need at least one service, got {num_services}")
        if owners is None and num_cores < num_services:
            raise ConfigError(
                f"{num_cores} cores cannot cover {num_services} services "
                "(every service needs at least one)"
            )
        if idle_threshold_ns < 0:
            raise ConfigError(
                f"idle threshold must be >= 0, got {idle_threshold_ns}"
            )
        if busy_occupancy < 1:
            raise ConfigError(
                f"busy_occupancy must be >= 1, got {busy_occupancy}"
            )
        self.idle_threshold_ns = idle_threshold_ns
        self.busy_occupancy = busy_occupancy
        self._owner: list[int] = []
        if owners is None:
            # equal division, remainder to the first services (paper:
            # "cores are equally divided among services" at init)
            base, extra = divmod(num_cores, num_services)
            for sid in range(num_services):
                count = base + (1 if sid < extra else 0)
                self._owner.extend([sid] * count)
        else:
            # preset ownership (a shard of a partitioned system): -1
            # marks a *foreign* core — present in the global core-id
            # space but owned by another shard, so never surplus, never
            # a donor, never in any map table here
            if len(owners) != num_cores:
                raise ConfigError(
                    f"owners covers {len(owners)} cores, expected {num_cores}"
                )
            for sid in owners:
                if not (sid == -1 or 0 <= sid < num_services):
                    raise ConfigError(f"bad owner {sid} in preset ownership")
            for sid in range(num_services):
                if sid not in owners:
                    raise ConfigError(
                        f"service {sid} has no core in preset ownership"
                    )
            self._owner = list(owners)
        self._last_busy_ns: list[int] = [0] * num_cores
        self._quiet_floor = 0
        self._offline: set[int] = set()
        self.transfers = 0
        self.internal_reclaims = 0
        self.denied_requests = 0
        self.cross_shard_grants = 0
        self.cross_shard_releases = 0

    # ------------------------------------------------------------------
    @property
    def num_cores(self) -> int:
        return len(self._owner)

    def owner_of(self, core_id: int) -> int:
        return self._owner[core_id]

    def cores_of(self, service_id: int) -> list[int]:
        """Cores currently owned by *service_id* (ascending id)."""
        return [c for c, s in enumerate(self._owner) if s == service_id]

    def online_cores_of(self, service_id: int) -> list[int]:
        """The service's cores that are not offline (ascending id)."""
        return [
            c
            for c, s in enumerate(self._owner)
            if s == service_id and c not in self._offline
        ]

    def initial_allocation(self) -> dict[int, list[int]]:
        """Service -> cores mapping (used to seed the map tables).

        Foreign cores (preset owner ``-1``) belong to another shard's
        map tables and are excluded.
        """
        out: dict[int, list[int]] = {}
        for core, sid in enumerate(self._owner):
            if sid >= 0:
                out.setdefault(sid, []).append(core)
        return out

    def last_busy_ns(self, core_id: int) -> int:
        """Last instant the core had real backlog (quietness clock)."""
        return self._last_busy_ns[core_id]

    # ------------------------------------------------------------------
    # quietness tracking (driven per routed packet by the scheduler)
    # ------------------------------------------------------------------
    def note_load(self, core_id: int, occupancy: int, t_ns: int) -> None:
        """Observe the core's queue occupancy at *t_ns* (called by the
        scheduler for the core each packet is routed to)."""
        if occupancy >= self.busy_occupancy:
            self.touch(core_id, t_ns)

    def touch(self, core_id: int, t_ns: int) -> None:
        """Unconditionally mark the core busy (granted cores are about
        to receive load; their quiet history no longer applies)."""
        self._last_busy_ns[core_id] = t_ns
        if t_ns < self._quiet_floor:
            self._quiet_floor = t_ns

    def is_surplus(self, core_id: int, t_ns: int) -> bool:
        """True when the core has had no real backlog for the idle
        threshold (an offline core is never surplus)."""
        if core_id in self._offline:
            return False
        return t_ns - self._last_busy_ns[core_id] >= self.idle_threshold_ns

    def surplus_cores(self, t_ns: int, service_id: int | None = None) -> list[int]:
        """Surplus cores (optionally of one service), longest-quiet
        first."""
        cores = [
            (self._last_busy_ns[core], core)
            for core in range(len(self._owner))
            if core not in self._offline
            and self._owner[core] >= 0  # foreign cores are never ours to give
            and t_ns - self._last_busy_ns[core] >= self.idle_threshold_ns
            and (service_id is None or self._owner[core] == service_id)
        ]
        cores.sort()
        return [core for _, core in cores]

    # ------------------------------------------------------------------
    # core health (driven by repro.faults via the scheduler)
    # ------------------------------------------------------------------
    def is_offline(self, core_id: int) -> bool:
        return core_id in self._offline

    @property
    def offline_cores(self) -> list[int]:
        return sorted(self._offline)

    def set_offline(self, core_id: int) -> int:
        """Take the core out of service; returns its (kept) owner.

        Releasing a core twice is an injector bug, not a tolerable
        no-op, so it raises.
        """
        if not 0 <= core_id < len(self._owner):
            raise SchedulerError(f"no such core: {core_id}")
        if core_id in self._offline:
            raise SchedulerError(f"core {core_id} is already offline")
        self._offline.add(core_id)
        return self._owner[core_id]

    def set_online(self, core_id: int, t_ns: int = 0) -> int:
        """Return a previously offline core to service; it re-enters as
        busy (touched at *t_ns*) so it is not instantly donated away.
        Returns the owner it rejoins."""
        if core_id not in self._offline:
            raise SchedulerError(f"core {core_id} is not offline")
        self._offline.discard(core_id)
        self.touch(core_id, t_ns)
        return self._owner[core_id]

    # ------------------------------------------------------------------
    def request_core(self, service_id: int, t_ns: int) -> CoreTransfer | None:
        """Grant the requesting service one more core, or None.

        Order of preference (Sec. III-C/D):

        1. the service's own longest-quiet surplus core — unmarked in
           place (no map-table change, no context switch);
        2. the longest-quiet surplus core of any other service —
           ownership moves, the caller must update both map tables;
        3. nothing available — the request is denied (the system is
           genuinely saturated).

        An external grant changes ``owner_of`` answers, which vectorized
        plans consult (stale-pin detection), so the calling scheduler
        must bump its ``map_epoch`` along with the map-table updates; an
        internal reclaim changes no routing state and needs no bump.
        """
        if t_ns - self._quiet_floor < self.idle_threshold_ns:
            # every online, owned core was busy within the threshold
            self.denied_requests += 1
            return None
        # one longest-quiet-first list serves both preferences: the
        # service's own surplus cores are its sub-list, in that order
        everyone = self.surplus_cores(t_ns)
        owner = self._owner
        if not everyone:
            floor = t_ns
            for core, sid in enumerate(owner):
                if sid >= 0 and core not in self._offline:
                    floor = min(floor, self._last_busy_ns[core])
            self._quiet_floor = floor
        for core in everyone:
            if owner[core] == service_id:
                self.touch(core, t_ns)  # unmark
                self.internal_reclaims += 1
                return CoreTransfer(core, service_id, service_id)
        if everyone:
            # never strip a donor's last online core: each service keeps >= 1
            online = Counter(s for c, s in enumerate(owner) if c not in self._offline)
            for core in everyone:
                donor = owner[core]
                if online[donor] > 1:
                    owner[core] = service_id
                    self.touch(core, t_ns)
                    self.transfers += 1
                    return CoreTransfer(core, donor, service_id)
        self.denied_requests += 1
        return None

    def force_transfer(self, core_id: int, to_service: int) -> CoreTransfer:
        """Unconditionally reassign a core (administrative/test hook)."""
        if core_id in self._offline:
            raise SchedulerError(f"cannot transfer offline core {core_id}")
        donor = self._owner[core_id]
        if donor == to_service:
            raise SchedulerError(f"core {core_id} already owned by {to_service}")
        if len(self.online_cores_of(donor)) <= 1:
            raise SchedulerError(
                f"cannot strip service {donor} of its last core"
            )
        self._owner[core_id] = to_service
        # a foreign core joins the owned set with its old clock
        self._quiet_floor = min(self._quiet_floor, self._last_busy_ns[core_id])
        self.transfers += 1
        return CoreTransfer(core_id, donor, to_service)

    # ------------------------------------------------------------------
    # cross-shard core movement (repro.sim.sharding barrier protocol)
    # ------------------------------------------------------------------
    def adopt(self, core_id: int, service_id: int, t_ns: int) -> None:
        """Take ownership of a *foreign* core granted by another shard.

        The granted core arrives busy-touched (like :meth:`set_online`)
        so it is not immediately re-donated.
        """
        if not 0 <= core_id < len(self._owner):
            raise SchedulerError(f"no such core: {core_id}")
        if self._owner[core_id] != -1:
            raise SchedulerError(
                f"core {core_id} is owned by service {self._owner[core_id]}, "
                "not foreign — cannot adopt"
            )
        if core_id in self._offline:
            raise SchedulerError(f"cannot adopt offline core {core_id}")
        self._owner[core_id] = service_id
        self.touch(core_id, t_ns)
        self.cross_shard_grants += 1

    def release(self, core_id: int) -> int:
        """Surrender an owned core to another shard (owner -> ``-1``).

        Returns the previous owner.  The usual donor guards apply: the
        core must be online and must not be its service's last online
        core.
        """
        owner = self._owner[core_id]
        if owner < 0:
            raise SchedulerError(f"core {core_id} is already foreign")
        if core_id in self._offline:
            raise SchedulerError(f"cannot release offline core {core_id}")
        if len(self.online_cores_of(owner)) <= 1:
            raise SchedulerError(
                f"cannot strip service {owner} of its last core"
            )
        self._owner[core_id] = -1
        self.cross_shard_releases += 1
        return owner
