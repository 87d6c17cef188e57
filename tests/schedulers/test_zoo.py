"""Behavior tests for the literature zoo (PR 6): RSS static hashing,
Flow Director rebinding, Sprinklers striping and flowlet switching.

The batch/scalar bit-identity contract is exercised by the shared twin
suite in ``test_assign_batch.py`` (every registered scheduler rides it
automatically); this file pins each scheme's *behavior* — the steering
decisions that give it its tournament profile.
"""

import numpy as np
import pytest

from repro import units
from repro.hashing.toeplitz import ToeplitzHasher
from repro.schedulers.flow_director import FlowDirectorScheduler
from repro.schedulers.flowlet import FlowletScheduler
from repro.schedulers.rss_static import RSSStaticScheduler
from repro.schedulers.sprinklers import SprinklersScheduler
from tests.schedulers.test_base import FakeLoads


class TestRSSStatic:
    def make(self, num_cores=4, **kw):
        sched = RSSStaticScheduler(**kw)
        loads = FakeLoads([0] * num_cores)
        sched.bind(loads)
        return sched, loads

    @pytest.mark.parametrize("entries", [0, -8, 3, 129])
    def test_non_power_of_two_table_rejected(self, entries):
        with pytest.raises(ValueError):
            RSSStaticScheduler(indirection_entries=entries)

    def test_table_round_robins_cores(self):
        sched, _ = self.make(num_cores=4, indirection_entries=8)
        assert sched.indirection_table == (0, 1, 2, 3, 0, 1, 2, 3)

    def test_select_core_is_toeplitz_of_flow_id(self):
        sched, _ = self.make(num_cores=4, indirection_entries=128)
        hasher = ToeplitzHasher()
        for flow_id in (0, 1, 17, 123_456, 2**40 + 5):
            bucket = hasher.hash(flow_id.to_bytes(8, "big")) & 127
            expected = sched.indirection_table[bucket]
            assert sched.select_core(flow_id, 0, 0, 0) == expected

    def test_custom_key_changes_steering(self):
        default, _ = self.make(num_cores=8)
        custom, _ = self.make(num_cores=8, key=bytes(range(40)))
        flows = range(256)
        assert any(
            default.select_core(f, 0, 0, 0) != custom.select_core(f, 0, 0, 0)
            for f in flows
        )

    def test_static_under_load_and_faults(self):
        sched, loads = self.make(num_cores=4)
        before = sched.map_epoch
        core = sched.select_core(7, 0, 0, 0)
        loads.occ[core] = 32  # full queue: RSS does not care
        assert sched.select_core(7, 0, 0, 1) == core
        sched.on_core_down(core, 10)
        assert sched.select_core(7, 0, 0, 20) == core  # black-holes
        assert sched.map_epoch == before

    def test_batch_matches_scalar(self):
        sched, _ = self.make(num_cores=4)
        flow_id = np.array([0, 5, 5, 2**33, 9, 0], dtype=np.int64)
        zeros = np.zeros(len(flow_id), dtype=np.int64)
        planned = sched.assign_batch(zeros, zeros, flow_id, zeros)
        scalar = [sched.select_core(int(f), 0, 0, 0) for f in flow_id]
        assert planned.tolist() == scalar


class TestFlowDirector:
    def make(self, num_cores=4, **kw):
        sched = FlowDirectorScheduler(**kw)
        loads = FakeLoads([0] * num_cores)
        sched.bind(loads)
        return sched, loads

    @pytest.mark.parametrize(
        "kw", [{"table_entries": 0}, {"rebind_threshold": 0}]
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            FlowDirectorScheduler(**kw)

    def test_threshold_must_fit_queue(self):
        sched = FlowDirectorScheduler(rebind_threshold=64)
        with pytest.raises(ValueError):
            sched.bind(FakeLoads([0] * 2))

    def test_first_packet_binds_least_loaded(self):
        sched, loads = self.make()
        loads.occ[:] = [3, 0, 2, 5]
        assert sched.select_core(1, 0, 0, 0) == 1
        assert sched.flows_bound == 1

    def test_sticky_below_threshold(self):
        sched, loads = self.make(rebind_threshold=8)
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[core] = 7  # loaded, but under threshold
        assert sched.select_core(1, 0, 0, 1) == core
        assert sched.rebinds == 0

    def test_rebinds_on_overload_ignoring_inflight(self):
        """The Wu et al. pathology: the bound core crosses the
        threshold and the very next packet jumps queues immediately."""
        sched, loads = self.make(rebind_threshold=8)
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[core] = 8
        dest = sched.select_core(1, 0, 0, 1)
        assert dest != core
        assert sched.rebinds == 1
        # and it keeps following the load, flapping back if asked
        loads.occ[dest] = 9
        loads.occ[core] = 0
        assert sched.select_core(1, 0, 0, 2) == core
        assert sched.rebinds == 2

    def test_no_rebind_when_everywhere_is_overloaded(self):
        sched, loads = self.make(rebind_threshold=4)
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[:] = [4, 4, 4, 4]
        assert sched.select_core(1, 0, 0, 1) == core
        assert sched.rebinds == 0

    def test_fifo_eviction_unbinds_oldest(self):
        sched, loads = self.make(table_entries=2)
        sched.select_core(1, 0, 0, 0)
        sched.select_core(2, 0, 0, 1)
        sched.select_core(3, 0, 0, 2)  # evicts flow 1
        assert sched.evictions == 1
        assert len(sched) == 2
        # flow 1 is rebound as if brand new
        loads.occ[:] = [9, 0, 9, 9]
        assert sched.select_core(1, 0, 0, 3) == 1
        assert sched.flows_bound == 4


class TestSprinklers:
    def make(self, num_cores=8, **kw):
        kw.setdefault("stripe_chunk", 2)
        kw.setdefault("width_threshold", 4)
        kw.setdefault("max_width", 4)
        sched = SprinklersScheduler(**kw)
        loads = FakeLoads([0] * num_cores)
        sched.bind(loads)
        return sched, loads

    @pytest.mark.parametrize(
        "kw",
        [
            {"stripe_chunk": 0},
            {"width_threshold": 0},
            {"max_width": 0},
            {"max_width": 3},
        ],
    )
    def test_invalid_params(self, kw):
        with pytest.raises(ValueError):
            SprinklersScheduler(**kw)

    def test_width_ladder_is_quadratic(self):
        sched, _ = self.make()  # threshold 4, cap 4
        widths = [sched._width(c) for c in (0, 3, 4, 15, 16, 1000)]
        assert widths == [1, 1, 2, 2, 4, 4]

    def test_width_cap_respects_core_count(self):
        sched, _ = self.make(num_cores=2, max_width=8)
        assert sched._width(10**6) == 2

    def test_mice_stay_pinned(self):
        sched, _ = self.make()
        picks = {sched.select_core(5, 0, 40, t) for t in range(4)}
        assert len(picks) == 1  # width 1: no striping below threshold

    def test_heavy_flow_stripes_over_consecutive_cores(self):
        sched, _ = self.make()
        cores = [sched.select_core(5, 0, 40, t) for t in range(24)]
        base = 40 % 8
        # after 16 packets the flow is width 4, chunked every 2 packets
        assert set(cores[16:24]) == {base, base + 1, base + 2, base + 3}
        assert sched.stripes_widened == 2  # 1->2 at count 4, 2->4 at 16

    def test_oblivious_to_queue_state(self):
        """Placement depends only on (hash, committed count): loading
        the queues changes nothing (Sprinklers never consults them)."""
        idle, _ = self.make()
        loaded, loads = self.make()
        loads.occ[:] = [31] * 8
        seq_idle = [idle.select_core(5, 0, 40, t) for t in range(20)]
        seq_loaded = [loaded.select_core(5, 0, 40, t) for t in range(20)]
        assert seq_idle == seq_loaded


class TestFlowlet:
    GAP = units.us(50)

    def make(self, num_cores=4, **kw):
        kw.setdefault("gap_ns", self.GAP)
        sched = FlowletScheduler(**kw)
        loads = FakeLoads([0] * num_cores)
        sched.bind(loads)
        return sched, loads

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            FlowletScheduler(gap_ns=0)

    def test_first_packet_joins_shortest_queue(self):
        sched, loads = self.make()
        loads.occ[:] = [4, 2, 0, 3]
        assert sched.select_core(1, 0, 0, 0) == 2
        assert sched.flowlets == 1

    def test_sticky_within_burst_despite_load(self):
        sched, loads = self.make()
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[core] = 30  # overload mid-burst: flowlet stays put
        for dt in range(1, 10):
            assert sched.select_core(1, 0, 0, dt * (self.GAP // 20)) == core
        assert sched.switches == 0

    def test_switches_only_at_idle_gap(self):
        sched, loads = self.make()
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[core] = 30
        dest = sched.select_core(1, 0, 0, self.GAP)  # gap reached
        assert dest != core
        assert sched.switches == 1

    def test_gap_resets_with_every_packet(self):
        """The gap is idle time, not flowlet age: a continuous trickle
        never switches no matter how long it runs."""
        sched, loads = self.make()
        core = sched.select_core(1, 0, 0, 0)
        loads.occ[core] = 30
        t = 0
        for _ in range(100):
            t += self.GAP - 1
            assert sched.select_core(1, 0, 0, t) == core
        assert sched.switches == 0

    def test_gap_without_better_core_stays_put(self):
        sched, loads = self.make()
        core = sched.select_core(1, 0, 0, 0)
        # boundary crossed but the bound core is still the least loaded:
        # re-pick lands on the same core, no switch
        assert sched.select_core(1, 0, 0, self.GAP * 2) == core
        assert sched.flowlets == 2
        assert sched.switches == 0

    def test_core_down_evicts_bindings_immediately(self):
        sched, loads = self.make()
        loads.occ[:] = [0, 9, 9, 9]
        assert sched.select_core(1, 0, 0, 0) == 0
        sched.on_core_down(0, 10)
        assert sched.fault_evictions == 1
        # next packet re-picks mid-burst instead of black-holing
        loads.occ[:] = [32, 9, 0, 9]
        assert sched.select_core(1, 0, 0, 20) == 2
