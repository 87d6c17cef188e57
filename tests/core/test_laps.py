"""Unit tests for the LAPS scheduler against a scripted load view."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.core.afd import AFDConfig
from repro.core.laps import LAPSConfig, LAPSScheduler
from repro.errors import ConfigError, SchedulerError
from repro.experiments import tournament
from repro.sim.system import simulate
from tests.core.test_afd import NaiveAFD, detector_state


class FakeLoads:
    """A LoadView whose occupancies the test scripts directly."""

    def __init__(self, num_cores, queue_capacity=32):
        self._n = num_cores
        self._cap = queue_capacity
        self.occ = [0] * num_cores

    @property
    def num_cores(self):
        return self._n

    @property
    def queue_capacity(self):
        return self._cap


def make_laps(num_cores=8, num_services=2, **cfg_kw):
    cfg_kw.setdefault("afd", AFDConfig(promote_threshold=2))
    sched = LAPSScheduler(LAPSConfig(num_services=num_services, **cfg_kw), rng=0)
    loads = FakeLoads(num_cores)
    sched.bind(loads)
    return sched, loads


def pump(sched, flow, service, n, t=0, h=None):
    """Feed n packets of one flow; returns the last selected core."""
    core = None
    for i in range(n):
        core = sched.select_core(flow, service, h if h is not None else flow, t + i)
    return core


class TestBind:
    def test_partitions_cores(self):
        sched, _ = make_laps(8, 2)
        assert sched.cores_of(0) == (0, 1, 2, 3)
        assert sched.cores_of(1) == (4, 5, 6, 7)

    def test_too_few_cores_rejected(self):
        sched = LAPSScheduler(LAPSConfig(num_services=4))
        with pytest.raises(ConfigError):
            sched.bind(FakeLoads(2))

    def test_threshold_must_fit_queue(self):
        sched = LAPSScheduler(LAPSConfig(num_services=1, high_threshold=64))
        with pytest.raises(ConfigError):
            sched.bind(FakeLoads(4, queue_capacity=32))

    def test_rebind_resets_state(self):
        sched, _ = make_laps()
        pump(sched, 1, 0, 5)
        sched.bind(FakeLoads(8))
        assert len(sched.migration) == 0
        assert sched.afd.observed == 0

    def test_service_without_map_table_is_named(self):
        """A 4-service workload under a 2-service LAPS fails on the
        first packet of service 2 with an error naming the service and
        the config knob, not a bare ``KeyError: 2``."""
        wl = tournament._zoo_workload("G1", 0.5, units.ms(0.5), 2000, 0, "none")
        sched = LAPSScheduler(LAPSConfig(num_services=2))
        with pytest.raises(
            SchedulerError,
            match=r"service 2 has no map table.*LAPSConfig\(num_services=2\)",
        ):
            simulate(wl, sched, tournament._zoo_config())


class TestSteadyState:
    def test_service_partitioning_respected(self):
        sched, _ = make_laps(8, 2)
        for flow in range(50):
            assert sched.select_core(flow, 0, flow * 7, 0) in sched.cores_of(0)
            assert sched.select_core(flow, 1, flow * 7, 1) in sched.cores_of(1)

    def test_flow_sticks_to_one_core(self):
        sched, _ = make_laps()
        cores = {pump(sched, 42, 0, 1, t=i, h=123) for i in range(20)}
        assert len(cores) == 1

    def test_no_migration_without_imbalance(self):
        sched, _ = make_laps()
        pump(sched, 1, 0, 100)
        assert sched.migrations_installed == 0
        assert sched.imbalance_events == 0


class TestMigration:
    def test_aggressive_flow_migrates_on_overload(self):
        sched, loads = make_laps(8, 2, high_threshold=4)
        # make flow 1 aggressive
        pump(sched, 1, 0, 5)
        home = sched.map_tables[0].lookup(1)
        loads.occ[home] = 4  # overloaded
        dest = sched.select_core(1, 0, 1, 100)
        assert dest != home
        assert dest in sched.cores_of(0)
        assert sched.migration.lookup(1) == dest
        assert sched.migrations_installed == 1

    def test_non_aggressive_flow_not_migrated(self):
        sched, loads = make_laps(8, 2, high_threshold=4)
        home = sched.map_tables[0].lookup(99)
        loads.occ[home] = 4
        dest = sched.select_core(99, 0, 99, 0)
        assert dest == home
        assert sched.migration.lookup(99) is None

    def test_afc_invalidated_after_migration(self):
        sched, loads = make_laps(8, 2, high_threshold=4)
        pump(sched, 1, 0, 5)
        loads.occ[sched.map_tables[0].lookup(1)] = 4
        sched.select_core(1, 0, 1, 100)
        assert not sched.afd.is_aggressive(1)

    def test_pinned_flow_returns_early(self):
        sched, loads = make_laps(8, 2, high_threshold=4)
        pump(sched, 1, 0, 5)
        home = sched.map_tables[0].lookup(1)
        loads.occ[home] = 4
        dest = sched.select_core(1, 0, 1, 100)
        loads.occ[home] = 0
        # pin persists even after the overload clears
        assert sched.select_core(1, 0, 1, 200) == dest

    def test_migration_stays_within_service(self):
        sched, loads = make_laps(8, 2, high_threshold=4)
        pump(sched, 1, 0, 5)
        for c in sched.cores_of(0):
            loads.occ[c] = 4
        loads.occ[sched.cores_of(1)[0]] = 0
        # all of service 0 is overloaded; service 1 has room but the
        # *migration* path must not cross services
        dest = sched.select_core(1, 0, 1, 100)
        assert dest in sched.cores_of(0) or dest in sched.cores_of(1)
        # if it crossed, it must be via a core transfer, not a pin
        if dest in sched.cores_of(1):
            pytest.fail("migrated into a foreign service's core")

    @staticmethod
    def _place_elephants(**cfg_kw) -> list[int]:
        """Make flows 1..3 aggressive, overload each one's hash home
        (cores 1..3), then return where each is migrated."""
        sched, loads = make_laps(8, 1, high_threshold=4, **cfg_kw)
        for f in (1, 2, 3):
            pump(sched, f, 0, 5)
        for f in (1, 2, 3):
            loads.occ[sched.map_tables[0].lookup(f)] = 4
        return [sched.select_core(f, 0, f, 100) for f in (1, 2, 3)]

    def test_pin_aware_placement_spreads_elephants(self):
        # each pin weighs on its core, so no two elephants share one
        assert len(set(self._place_elephants())) == 3

    def test_placement_without_pin_weight_stacks_elephants(self):
        # the control: with pins weightless, every elephant lands on
        # the first least-loaded core, core 0
        assert self._place_elephants(pin_weight=0) == [0, 0, 0]


class TestCoreRequest:
    def test_request_core_on_total_overload(self):
        sched, loads = make_laps(8, 2, idle_threshold_ns=100, high_threshold=4)
        # service 1's cores are quiet since t=0; overload all of service 0
        for c in sched.cores_of(0):
            loads.occ[c] = 4
        t = 10_000
        before = len(sched.cores_of(0))
        sched.select_core(5, 0, 5, t)
        assert len(sched.cores_of(0)) == before + 1
        assert len(sched.cores_of(1)) == 3
        assert sched.core_requests == 1

    def test_denied_when_no_surplus(self):
        sched, loads = make_laps(8, 2, idle_threshold_ns=100, high_threshold=4)
        for c in range(8):
            loads.occ[c] = 4
            sched.allocator.touch(c, 10_000)
        sched.select_core(5, 0, 5, 10_000)
        assert sched.core_requests_denied >= 1

    def test_stale_pin_dropped_when_core_donated(self):
        sched, loads = make_laps(8, 2, idle_threshold_ns=100, high_threshold=4)
        # pin flow 1 of service 1 onto one of service 1's cores
        pump(sched, 1, 1, 5)
        home = sched.map_tables[1].lookup(1)
        loads.occ[home] = 4
        pinned = sched.select_core(1, 1, 1, 50)
        # donate that pinned core to service 0
        sched.allocator.force_transfer(pinned, 0)
        sched.map_tables[1].remove_core(pinned)
        sched.map_tables[0].add_core(pinned)
        loads.occ[pinned] = 0
        dest = sched.select_core(1, 1, 1, 60)
        assert dest in sched.cores_of(1)
        assert sched.stale_migrations_dropped >= 1


class TestStats:
    def test_stats_keys(self):
        sched, _ = make_laps()
        stats = sched.stats()
        assert "migrations_installed" in stats
        assert "core_transfers" in stats
        assert "afd_promotions" in stats


class ReferenceLAPS(LAPSScheduler):
    """LAPS deciding each packet through the tables' methods, step by
    step as Sec. III-E reads, over :class:`NaiveAFD` (seeded like the
    real detector, so sampled runs draw the same numbers)."""

    def __init__(self, config, rng):
        super().__init__(config, rng=rng)
        self.afd = NaiveAFD(self.config.afd, rng=rng)

    def select_core(self, flow_id, service_id, flow_hash, t_ns):
        cfg = self.config
        table = self.map_tables[service_id]
        allocator = self.allocator
        self.afd.observe(flow_id)
        occ = self.loads.occ
        pinned = self.migration.lookup(flow_id)
        if pinned is not None:
            if allocator.owner_of(pinned) == service_id:
                allocator.note_load(pinned, occ[pinned], t_ns)
                return pinned
            self.migration.remove(flow_id)
            self.stale_migrations_dropped += 1
        target = table.lookup(flow_hash)
        load = occ[target]
        allocator.note_load(target, load, t_ns)
        if load >= cfg.high_threshold:
            self.imbalance_events += 1
            minq_core = self._min_queue_core(table.cores)
            if occ[minq_core] < cfg.high_threshold:
                if self.afd.is_aggressive(flow_id):
                    dest = self._placement_target(table.cores, cfg.high_threshold)
                    if dest is not None and dest != target:
                        self.migration.add(flow_id, dest)
                        self.afd.invalidate(flow_id)
                        self.migrations_installed += 1
                        return dest
            else:
                for core in table.cores:
                    allocator.touch(core, t_ns)
                if self._request_core(service_id, t_ns):
                    target = table.lookup(flow_hash)
        return target


def laps_state(sched):
    """Everything a decision can change: counters, both detector
    levels, the migration table, the allocator and the map tables."""
    alloc = sched.allocator
    cores = range(alloc.num_cores)
    return (
        sched.stats(),
        detector_state(sched.afd),
        sched.migration.items(),
        [alloc.last_busy_ns(c) for c in cores],
        [alloc.owner_of(c) for c in cores],
        alloc.offline_cores,
        {sid: sched.cores_of(sid) for sid in sched.map_tables},
    )


class TestReferenceTwin:
    """The flattened ``select_core`` makes the reference's decisions."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, data):
        draw = data.draw
        num_cores = draw(st.integers(2, 8), label="cores")
        num_services = draw(st.integers(1, min(3, num_cores)), label="services")
        capacity = draw(st.integers(2, 8), label="capacity")
        afd = AFDConfig(
            afc_entries=draw(st.integers(1, 4)),
            annex_entries=draw(st.integers(2, 8)),
            promote_threshold=draw(st.integers(1, 4)),
            sample_prob=draw(st.sampled_from([1.0, 0.5])),
        )
        cfg = LAPSConfig(
            num_services=num_services,
            high_threshold=draw(st.integers(1, capacity)),
            idle_threshold_ns=draw(st.integers(0, 200)),
            migration_table_entries=draw(st.integers(1, 4)),
            pin_weight=draw(st.integers(0, 4)),
            afd=afd,
        )
        seed = draw(st.integers(0, 2**16), label="seed")
        loads = FakeLoads(num_cores, capacity)
        flat = LAPSScheduler(cfg, rng=seed)
        ref = ReferenceLAPS(cfg, rng=seed)
        flat.bind(loads)
        ref.bind(loads)
        # a flow keeps its service and hash, as in a trace
        flows = {}
        down = set()
        t = 0
        ops = draw(st.lists(st.integers(0, 9), min_size=40, max_size=200), label="ops")
        for op in ops:
            t += draw(st.integers(0, 60))
            if op <= 5:
                flow = draw(st.integers(0, 11))
                if flow not in flows:
                    flows[flow] = (
                        draw(st.integers(0, num_services - 1)),
                        draw(st.integers(0, 2**16 - 1)),
                    )
                service, flow_hash = flows[flow]
                core = flat.select_core(flow, service, flow_hash, t)
                assert core == ref.select_core(flow, service, flow_hash, t)
            elif op <= 7:
                occ = draw(st.lists(
                    st.integers(0, capacity), min_size=num_cores, max_size=num_cores
                ))
                loads.occ[:] = [capacity if c in down else n for c, n in enumerate(occ)]
            elif op == 8:
                up = sorted(set(range(num_cores)) - down)
                if not up:
                    continue
                core = draw(st.sampled_from(up))
                down.add(core)
                loads.occ[core] = capacity
                flat.on_core_down(core, t)
                ref.on_core_down(core, t)
            else:
                if not down:
                    continue
                core = draw(st.sampled_from(sorted(down)))
                down.discard(core)
                loads.occ[core] = 0
                flat.on_core_up(core, t)
                ref.on_core_up(core, t)
            assert laps_state(flat) == laps_state(ref)
