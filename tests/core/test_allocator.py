"""Tests for dynamic core allocation (surplus list, donations)."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import CoreAllocator, CoreTransfer
from repro.errors import ConfigError, SchedulerError

IDLE = 1000  # ns


def make(num_cores=8, num_services=4, idle=IDLE, busy=4):
    return CoreAllocator(num_cores, num_services, idle, busy_occupancy=busy)


class TestConstruction:
    def test_equal_division(self):
        alloc = make(8, 4)
        for sid in range(4):
            assert len(alloc.cores_of(sid)) == 2

    def test_remainder_to_first_services(self):
        alloc = make(10, 4)
        assert [len(alloc.cores_of(s)) for s in range(4)] == [3, 3, 2, 2]

    def test_initial_allocation_mapping(self):
        alloc = make(4, 2)
        assert alloc.initial_allocation() == {0: [0, 1], 1: [2, 3]}

    def test_more_services_than_cores_rejected(self):
        with pytest.raises(ConfigError):
            make(2, 4)

    @pytest.mark.parametrize(
        "kw", [{"num_cores": 0}, {"num_services": 0}, {"idle": -1}, {"busy": 0}]
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ConfigError):
            make(**kw)


class TestSurplusTracking:
    def test_quiet_core_becomes_surplus(self):
        alloc = make()
        assert alloc.is_surplus(0, IDLE)
        assert not alloc.is_surplus(0, IDLE - 1)

    def test_backlog_resets_timer(self):
        alloc = make()
        alloc.note_load(0, occupancy=4, t_ns=500)
        assert not alloc.is_surplus(0, IDLE)
        assert alloc.is_surplus(0, 500 + IDLE)

    def test_light_load_does_not_reset(self):
        alloc = make()
        alloc.note_load(0, occupancy=3, t_ns=900)  # below busy_occupancy
        assert alloc.is_surplus(0, IDLE)

    def test_touch_marks_busy(self):
        alloc = make()
        alloc.touch(0, 700)
        assert not alloc.is_surplus(0, IDLE)

    def test_surplus_ordered_longest_quiet_first(self):
        alloc = make()
        alloc.note_load(1, 10, 100)
        alloc.note_load(0, 10, 200)
        surplus = alloc.surplus_cores(200 + IDLE)
        assert surplus.index(1) < surplus.index(0)

    def test_surplus_filtered_by_service(self):
        alloc = make(8, 4)
        own = alloc.surplus_cores(IDLE, service_id=0)
        assert own == alloc.cores_of(0)


class TestRequestCore:
    def test_internal_reclaim_preferred(self):
        alloc = make()
        transfer = alloc.request_core(0, IDLE)
        assert transfer is not None
        assert transfer.is_internal
        assert transfer.core_id in alloc.cores_of(0)
        assert alloc.internal_reclaims == 1

    def test_external_donation(self):
        alloc = make()
        # keep service 0's own cores busy
        for core in alloc.cores_of(0):
            alloc.touch(core, IDLE)
        transfer = alloc.request_core(0, IDLE)
        assert transfer is not None
        assert not transfer.is_internal
        assert alloc.owner_of(transfer.core_id) == 0
        assert alloc.transfers == 1

    def test_longest_quiet_donor_chosen(self):
        alloc = make()
        for core in alloc.cores_of(0):
            alloc.touch(core, IDLE)
        # make service 1's cores recently busy-ish, service 2's ancient
        for core in alloc.cores_of(1):
            alloc.note_load(core, 10, 500)
        t = 500 + IDLE
        transfer = alloc.request_core(0, t)
        assert transfer.donor_service in (2, 3)

    def test_denied_when_everyone_busy(self):
        alloc = make()
        for core in range(alloc.num_cores):
            alloc.touch(core, IDLE)
        assert alloc.request_core(0, IDLE) is None
        assert alloc.denied_requests == 1

    def test_never_strips_last_core(self):
        alloc = make(2, 2)
        # both cores quiet; service 0 asks repeatedly
        t = IDLE
        first = alloc.request_core(0, t)
        assert first.is_internal
        second = alloc.request_core(0, t)
        # service 1's only core cannot be donated
        assert second is None or second.is_internal

    def test_granted_core_marked_busy(self):
        alloc = make()
        transfer = alloc.request_core(0, IDLE)
        assert not alloc.is_surplus(transfer.core_id, IDLE + 1)


class TestRequestCoreEdgeCases:
    def test_no_surplus_anywhere_denied(self):
        alloc = make()
        # fresh allocator at t=0: nothing has been quiet for idle_th yet
        assert alloc.request_core(0, IDLE - 1) is None
        assert alloc.denied_requests == 1

    def test_denied_when_only_surplus_is_offline(self):
        alloc = make(8, 4)
        for core in range(alloc.num_cores):
            if alloc.owner_of(core) in (0, 1):
                alloc.touch(core, IDLE)
        # services 2 and 3 are quiet but down to one online core each
        alloc.set_offline(alloc.cores_of(2)[0])
        alloc.set_offline(alloc.cores_of(3)[0])
        assert alloc.request_core(0, IDLE) is None

    def test_offline_core_never_donated(self):
        alloc = make(8, 4)
        for core in alloc.cores_of(0):
            alloc.touch(core, IDLE)
        dead = alloc.cores_of(1)[0]
        alloc.set_offline(dead)
        granted = set()
        while (t := alloc.request_core(0, IDLE)) is not None:
            granted.add(t.core_id)
        assert granted and dead not in granted


class TestOfflineLifecycle:
    def test_release_keeps_owner(self):
        alloc = make(8, 4)
        core = alloc.cores_of(2)[0]
        assert alloc.set_offline(core) == 2
        assert alloc.owner_of(core) == 2
        assert alloc.is_offline(core)
        assert core not in alloc.online_cores_of(2)

    def test_release_with_backlog_still_excluded_from_surplus(self):
        alloc = make()
        core = alloc.cores_of(1)[0]
        # the core fails with packets still queued (real backlog noted)
        alloc.note_load(core, occupancy=10, t_ns=100)
        alloc.set_offline(core)
        assert not alloc.is_surplus(core, 100 + 2 * IDLE)
        assert core not in alloc.surplus_cores(100 + 2 * IDLE)

    def test_double_release_raises(self):
        alloc = make()
        alloc.set_offline(3)
        with pytest.raises(SchedulerError):
            alloc.set_offline(3)

    def test_release_unknown_core_raises(self):
        alloc = make(8, 4)
        with pytest.raises(SchedulerError):
            alloc.set_offline(8)

    def test_online_without_release_raises(self):
        alloc = make()
        with pytest.raises(SchedulerError):
            alloc.set_online(0)

    def test_recovered_core_rejoins_owner_as_busy(self):
        alloc = make()
        core = alloc.cores_of(1)[0]
        alloc.set_offline(core)
        assert alloc.set_online(core, t_ns=5000) == 1
        assert not alloc.is_offline(core)
        # touched on return: not surplus until a fresh idle period
        assert not alloc.is_surplus(core, 5000 + IDLE - 1)
        assert alloc.is_surplus(core, 5000 + IDLE)

    def test_offline_cores_sorted(self):
        alloc = make()
        alloc.set_offline(5)
        alloc.set_offline(2)
        assert alloc.offline_cores == [2, 5]

    def test_force_transfer_offline_rejected(self):
        alloc = make()
        core = alloc.cores_of(1)[0]
        alloc.set_offline(core)
        with pytest.raises(SchedulerError):
            alloc.force_transfer(core, 0)

    def test_force_transfer_respects_online_last_core(self):
        alloc = make(8, 4)
        a, b = alloc.cores_of(1)
        alloc.set_offline(a)
        # b is service 1's last *online* core: stripping it would leave
        # the service with only a dead core
        with pytest.raises(SchedulerError):
            alloc.force_transfer(b, 0)


class TestForceTransfer:
    def test_force(self):
        alloc = make()
        core = alloc.cores_of(1)[0]
        transfer = alloc.force_transfer(core, 0)
        assert transfer.donor_service == 1
        assert alloc.owner_of(core) == 0

    def test_force_same_owner_rejected(self):
        alloc = make()
        with pytest.raises(SchedulerError):
            alloc.force_transfer(alloc.cores_of(0)[0], 0)

    def test_force_last_core_rejected(self):
        alloc = make(2, 2)
        with pytest.raises(SchedulerError):
            alloc.force_transfer(alloc.cores_of(1)[0], 0)


class ScanOnlyAllocator(CoreAllocator):
    """Reference: every request scans all cores for surplus ones (the
    allocator before its quiet floor)."""

    def request_core(self, service_id, t_ns):
        everyone = self.surplus_cores(t_ns)
        owner = self._owner
        for core in everyone:
            if owner[core] == service_id:
                self.touch(core, t_ns)
                self.internal_reclaims += 1
                return CoreTransfer(core, service_id, service_id)
        if everyone:
            online = Counter(
                s for c, s in enumerate(owner) if c not in self._offline
            )
            for core in everyone:
                donor = owner[core]
                if online[donor] > 1:
                    owner[core] = service_id
                    self.touch(core, t_ns)
                    self.transfers += 1
                    return CoreTransfer(core, donor, service_id)
        self.denied_requests += 1
        return None


_OPS = ("write", "saturate", "saturate", "touch", "request", "request",
        "offline", "online", "release", "adopt", "force")


class TestQuietFloor:
    def test_denies_without_scanning_while_nothing_can_be_surplus(self):
        alloc = make()
        for core in range(alloc.num_cores):
            alloc.touch(core, IDLE)
        scans = []
        full_scan = alloc.surplus_cores

        def counted(t_ns, service_id=None):
            scans.append(t_ns)
            return full_scan(t_ns, service_id)

        alloc.surplus_cores = counted
        assert alloc.request_core(0, IDLE) is None  # scans, raises floor
        for t in range(IDLE, 2 * IDLE, 100):
            assert alloc.request_core(0, t) is None
        assert scans == [IDLE]
        assert alloc.denied_requests == 11
        # a quiet core is found again once the threshold has passed
        assert alloc.request_core(0, 2 * IDLE) is not None
        assert scans == [IDLE, 2 * IDLE]

    @given(
        num_cores=st.integers(1, 8),
        num_services=st.integers(1, 3),
        foreign=st.lists(st.booleans(), min_size=10, max_size=10),
        idle=st.integers(0, 200),
        steps=st.lists(
            st.tuples(
                st.sampled_from(_OPS),
                st.integers(0, 9),     # core (mod num_cores)
                st.integers(0, 3),     # service (mod num_services)
                st.integers(0, 60),    # time step
                st.integers(0, 400),   # how far back a touch reaches
            ),
            min_size=20, max_size=80,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_only_reference(
        self, num_cores, num_services, foreign, idle, steps
    ):
        """Driven through the same clock writes (in place, as LAPS
        writes, at the current instant; by ``touch`` and ``set_online``
        at any earlier one), health changes, cross-shard moves and
        requests, the allocator and the scan-only reference grant the
        same cores and keep the same owners, clocks and counters."""
        num_cores = max(num_cores, num_services)
        owners = [
            -1 if c >= num_services and foreign[c] else c % num_services
            for c in range(num_cores)
        ]
        fast = CoreAllocator(num_cores, num_services, idle, owners=owners)
        ref = ScanOnlyAllocator(num_cores, num_services, idle, owners=owners)
        now = 0
        for op, core, service, dt, back in steps:
            now += dt
            core %= num_cores
            service %= num_services
            outs = []
            for alloc in (fast, ref):
                try:
                    if op == "write":
                        alloc._last_busy_ns[core] = now
                        out = None
                    elif op == "saturate":  # LAPS's every-core-overloaded path
                        for c in alloc.cores_of(service):
                            alloc._last_busy_ns[c] = now
                        out = alloc.request_core(service, now)
                    elif op == "touch":
                        out = alloc.touch(core, max(0, now - back))
                    elif op == "request":
                        out = alloc.request_core(service, now)
                    elif op == "offline":
                        out = alloc.set_offline(core)
                    elif op == "online":
                        out = alloc.set_online(core, max(0, now - back))
                    elif op == "release":
                        out = alloc.release(core)
                    elif op == "adopt":
                        out = alloc.adopt(core, service, now)
                    else:
                        out = alloc.force_transfer(core, service)
                except SchedulerError as exc:
                    out = ("raised", str(exc))
                outs.append(out)
            assert outs[0] == outs[1], (op, core, service, now)
            assert fast._owner == ref._owner
            assert fast._last_busy_ns == ref._last_busy_ns
            assert fast._offline == ref._offline
            for name in ("transfers", "internal_reclaims", "denied_requests",
                         "cross_shard_grants", "cross_shard_releases"):
                assert getattr(fast, name) == getattr(ref, name), name
