"""Tests for the reorder detector, incl. a brute-force property check."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.reorder import ReorderDetector


class TestInOrder:
    def test_sequential_departures_in_order(self):
        det = ReorderDetector()
        for seq in range(5):
            assert not det.on_depart(0, seq)
        assert det.out_of_order == 0
        assert det.departed == 5

    def test_flows_independent(self):
        det = ReorderDetector()
        det.on_depart(0, 0)
        det.on_depart(1, 0)
        det.on_depart(0, 1)
        det.on_depart(1, 1)
        assert det.out_of_order == 0


class TestOutOfOrder:
    def test_swap_counts_once(self):
        det = ReorderDetector()
        assert det.on_depart(0, 1)       # early: seq 0 still inside
        assert not det.on_depart(0, 0)   # the late one is not OOO itself
        assert det.out_of_order == 1

    def test_run_of_early_departures(self):
        det = ReorderDetector()
        for seq in (3, 2, 1):
            assert det.on_depart(0, seq)
        assert not det.on_depart(0, 0)
        assert det.out_of_order == 3

    def test_gap_then_catchup(self):
        det = ReorderDetector()
        det.on_depart(0, 0)
        det.on_depart(0, 2)  # ooo
        det.on_depart(0, 1)
        assert not det.on_depart(0, 3)  # sequencing recovered
        assert det.out_of_order == 1


class TestDrops:
    def test_drop_advances_sequence(self):
        det = ReorderDetector()
        det.on_drop(0, 0)
        assert not det.on_depart(0, 1)
        assert det.out_of_order == 0

    def test_drop_never_counts_as_ooo(self):
        det = ReorderDetector()
        det.on_drop(0, 2)  # dropped ahead of 0,1
        det.on_drop(0, 0)
        det.on_drop(0, 1)
        assert det.out_of_order == 0
        assert det.departed == 0

    def test_mixed_drop_and_depart(self):
        det = ReorderDetector()
        det.on_depart(0, 0)
        det.on_drop(0, 1)
        assert not det.on_depart(0, 2)

    def test_drop_advances_expected_without_ooo(self):
        """Drops advance the per-flow expected sequence: a later
        departure over a dropped gap is in order, and the drop itself
        never increments the OOO counter."""
        det = ReorderDetector()
        det.on_drop(0, 0)
        det.on_drop(0, 1)
        assert not det.on_depart(0, 2)
        assert det.out_of_order == 0
        assert det.departed == 1
        assert det.accounted == 3

    def test_early_drop_fills_gap_for_late_departure(self):
        det = ReorderDetector()
        assert not det.on_depart(0, 0)
        det.on_drop(0, 2)            # leaves seq 1 in flight
        assert det.in_flight_gaps == 1
        assert not det.on_depart(0, 1)  # late packet: not OOO itself
        assert det.in_flight_gaps == 0
        assert det.out_of_order == 0


class TestValidation:
    def test_double_account_rejected(self):
        det = ReorderDetector()
        det.on_depart(0, 0)
        with pytest.raises(ValueError):
            det.on_depart(0, 0)

    def test_double_account_pending_rejected(self):
        det = ReorderDetector()
        det.on_depart(0, 5)
        with pytest.raises(ValueError):
            det.on_depart(0, 5)

    def test_duplicate_drop_rejected(self):
        det = ReorderDetector()
        det.on_drop(0, 0)
        with pytest.raises(ValueError):
            det.on_drop(0, 0)

    def test_drop_after_depart_rejected(self):
        det = ReorderDetector()
        det.on_depart(0, 3)
        with pytest.raises(ValueError):
            det.on_drop(0, 3)

    def test_ooo_fraction(self):
        det = ReorderDetector()
        det.on_depart(0, 1)
        det.on_depart(0, 0)
        assert det.ooo_fraction() == pytest.approx(0.5)

    def test_ooo_fraction_empty(self):
        assert ReorderDetector().ooo_fraction() == 0.0

    def test_in_flight_gaps(self):
        det = ReorderDetector()
        det.on_depart(0, 2)
        det.on_depart(0, 4)
        assert det.in_flight_gaps == 2


def brute_force_ooo(events):
    """Reference: a departure of (flow, seq) is OOO iff some smaller seq
    of the same flow has not yet departed or dropped."""
    accounted = set()
    max_seq = {}
    ooo = 0
    for kind, flow, seq in events:
        earlier_missing = any(
            (flow, s) not in accounted for s in range(seq)
        )
        accounted.add((flow, seq))
        if kind == "depart" and earlier_missing:
            ooo += 1
        max_seq[flow] = max(max_seq.get(flow, -1), seq)
    return ooo


@st.composite
def event_streams(draw):
    """Per-flow permutations of 0..n-1 interleaved across flows."""
    flows = draw(st.integers(1, 3))
    events = []
    for flow in range(flows):
        n = draw(st.integers(0, 8))
        order = draw(st.permutations(list(range(n))))
        kinds = draw(
            st.lists(st.sampled_from(["depart", "drop"]), min_size=n, max_size=n)
        )
        events.extend((k, flow, s) for k, s in zip(kinds, order))
    return draw(st.permutations(events))


class TestBruteForceEquivalence:
    @given(event_streams())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, events):
        det = ReorderDetector()
        for kind, flow, seq in events:
            if kind == "depart":
                det.on_depart(flow, seq)
            else:
                det.on_drop(flow, seq)
        assert det.out_of_order == brute_force_ooo(events)

    @given(event_streams())
    @settings(max_examples=100, deadline=None)
    def test_gaps_drain_to_zero(self, events):
        """After every packet of every flow is accounted (each stream is
        a full permutation of 0..n-1 per flow), no sequence gap can
        remain in flight."""
        det = ReorderDetector()
        for kind, flow, seq in events:
            if kind == "depart":
                det.on_depart(flow, seq)
            else:
                det.on_drop(flow, seq)
        assert det.in_flight_gaps == 0


def _feed(det, events):
    """Per-event form: one ``on_drop``/``on_depart`` call per event."""
    for flow, seq, dropped in events:
        if dropped:
            det.on_drop(flow, seq)
        else:
            det.on_depart(flow, seq)


def _feed_batch(det, events):
    det.account_batch(
        [e[0] for e in events], [e[1] for e in events], [e[2] for e in events]
    )


def _state(det):
    return (
        det._next_expected,
        det._pending,
        det.out_of_order,
        det.departed,
        det.accounted,
        det.in_flight_gaps,
    )


@st.composite
def fed_streams(draw):
    """1-4 flows, each a permutation of its seqs, interleaved and cut
    into feeds of 0-12 events, each fed per event or as one batch."""
    events = []
    for flow in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 10))
        order = draw(st.permutations(list(range(n))))
        dropped = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        events.extend((flow, s, d) for s, d in zip(order, dropped))
    events = draw(st.permutations(events))
    plan = draw(
        st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=12)
    )
    feeds = []
    i = 0
    for batched, size in plan:
        feeds.append((batched, events[i : i + size]))
        i += size
    while i < len(events):
        feeds.append((True, events[i : i + 12]))
        i += 12
    return feeds


class TestBatchTwin:
    """``account_batch`` against the per-event methods it replaces."""

    @given(fed_streams())
    @settings(max_examples=500, deadline=None)
    def test_batch_equals_per_event(self, feeds):
        ref, det = ReorderDetector(), ReorderDetector()
        for batched, events in feeds:
            _feed(ref, events)
            if batched:
                _feed_batch(det, events)
            else:
                _feed(det, events)
            assert _state(det) == _state(ref)

    def test_fold_carries_pending_across_batches(self):
        det = ReorderDetector()
        det.account_batch([0, 0], [2, 3], [False, True])
        assert det._pending == {0: {2, 3}} and det.out_of_order == 1
        det.account_batch([0, 0], [1, 0], [False, False])
        assert det._next_expected == {0: 4} and det._pending == {}
        assert det.out_of_order == 2  # seq 1 left ahead of seq 0

    def test_wide_keys_equal_per_event(self):
        # flow ids too far apart to pack with the seqs into one int64;
        # cut at 2, the second batch folds a pending seq across a flow
        # range too wide to tabulate
        events = [(1 << 61, 1, False), (0, 0, True), (1 << 61, 0, False),
                  (0, 1, False)]
        ref = ReorderDetector()
        _feed(ref, events)
        for cut in (4, 2):
            det = ReorderDetector()
            _feed_batch(det, events[:cut])
            _feed_batch(det, events[cut:])
            assert _state(det) == _state(ref)
            assert det.out_of_order == 1

    @pytest.mark.parametrize("dropped", [False, True])
    @pytest.mark.parametrize(
        "before, bad",
        [
            ([(0, 0, False), (0, 1, True)], [(1, 0, False), (0, 1, None)]),
            ([(0, 4, False)], [(1, 0, False), (0, 4, None)]),
            ([], [(0, 2, None), (1, 0, False), (0, 2, None)]),
        ],
        ids=["below-expected", "already-pending", "repeated-in-batch"],
    )
    def test_bad_seq_raises_in_both_forms(self, before, bad, dropped):
        bad = [(f, s, dropped if d is None else d) for f, s, d in bad]
        ref, det = ReorderDetector(), ReorderDetector()
        _feed(ref, before)
        _feed(det, before)
        with pytest.raises(ValueError):
            _feed(ref, bad)
        saved = copy.deepcopy(_state(det))
        with pytest.raises(ValueError):
            _feed_batch(det, bad)
        assert _state(det) == saved  # nothing written


class TestFullRunDrains:
    def test_in_flight_gaps_zero_after_simulation(self, small_workload, small_config):
        """End-to-end: a generously drained run accounts every packet,
        so the detector's in-flight gap set is empty afterwards."""
        from repro.schedulers.fcfs import FCFSScheduler
        from repro.sim.kernel import SimKernel

        kernel = SimKernel(small_config, FCFSScheduler(), small_workload)
        rep = kernel.run()
        assert rep.departed + rep.dropped == rep.generated
        assert kernel.reorder.in_flight_gaps == 0
