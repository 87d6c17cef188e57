"""Egress packet-order accounting.

A departing packet is **out of order** iff some packet of the same flow
with a smaller per-flow sequence number is still in the system at its
departure — i.e. departure order inverts arrival order within the flow
(the receiver would observe a gap).  Packets lost to full queues leave
the system too: a drop *advances* the expected sequence (the receiver
never sees the dropped packet, so later packets are not "out of order"
relative to it), but the drop itself is never counted as a reorder.

Implementation: per flow, the smallest not-yet-accounted sequence
number plus the set of early (out-of-order) accounted sequences above
it; both updates are amortised O(1) per packet.
:meth:`ReorderDetector.account_batch` applies a whole batch of
departures and drops with a handful of array operations and leaves
exactly the state the same sequence of per-event calls would.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.util.sorting import stable_order

__all__ = ["ReorderDetector"]

#: widest flow-id range (bytes of boolean table) a batch's pending-flow
#: lookup tabulates; wider batches take isin's sort
_TABLE_RANGE = 1 << 22


class ReorderDetector:
    """Streaming per-flow reorder counter."""

    __slots__ = ("_next_expected", "_pending", "out_of_order", "departed", "accounted")

    def __init__(self) -> None:
        self._next_expected: dict[int, int] = {}
        self._pending: dict[int, set[int]] = {}
        self.out_of_order = 0
        self.departed = 0
        self.accounted = 0

    def _account(self, flow_id: int, seq: int) -> bool:
        """Mark *seq* of *flow_id* as having left the system.

        Returns True when the packet left ahead of an earlier one
        (out of order).
        """
        self.accounted += 1
        expected = self._next_expected.get(flow_id, 0)
        if seq == expected:
            expected += 1
            pending = self._pending.get(flow_id)
            if pending:
                while expected in pending:
                    pending.remove(expected)
                    expected += 1
                if not pending:
                    del self._pending[flow_id]
            self._next_expected[flow_id] = expected
            return False
        if seq < expected or seq in self._pending.get(flow_id, ()):
            raise ValueError(
                f"flow {flow_id} seq {seq} accounted twice (expected >= {expected})"
            )
        self._pending.setdefault(flow_id, set()).add(seq)
        return True

    def on_depart(self, flow_id: int, seq: int) -> bool:
        """Account a departure; returns and counts out-of-order-ness."""
        self.departed += 1
        early = self._account(flow_id, seq)
        if early:
            self.out_of_order += 1
        return early

    def on_drop(self, flow_id: int, seq: int) -> None:
        """Account a drop (advances sequencing, never counts as OOO)."""
        self._account(flow_id, seq)

    def account_batch(self, flow_id, seq, dropped) -> None:
        """Account a batch of departures and drops, given in accounting
        order: the same state and counters as calling :meth:`on_depart`
        (``dropped`` false) or :meth:`on_drop` (``dropped`` true) on
        each row in turn.

        Each touched flow's pending seqs join the batch as rows
        accounted before it.  With the rows sorted by (flow, seq), a row
        is *in sequence* iff its seq is the flow's expected seq plus its
        rank within the flow; the in-sequence rows are exactly the ones
        the expected seq sweeps over, so it advances by their count and
        the rest become the flow's pending set.  A departure is in order
        iff it is in sequence and every smaller seq of its flow was
        accounted before it: its batch position is the running maximum
        over the flow's sorted rows.  A seq below the expected one,
        already pending or repeated in the batch raises ``ValueError``
        before anything is written.
        """
        flow = np.asarray(flow_id, dtype=np.int64)
        seqs = np.asarray(seq, dtype=np.int64)
        dep = ~np.asarray(dropped, dtype=bool)
        n = int(flow.size)
        if n == 0:
            return
        pos = np.arange(1, n + 1, dtype=np.int64)  # 0 = before the batch
        pending = self._pending
        folded: list[int] = []
        if pending:
            # a boolean table over the batch's flow ids: for a range
            # sparse next to the batch, isin's default sorts every row
            keys = np.fromiter(pending, dtype=np.int64, count=len(pending))
            dense = int(flow.max()) - int(flow.min()) < _TABLE_RANGE
            folded = keys[np.isin(keys, flow, kind="table" if dense else None)].tolist()
        if folded:
            sets = [pending[f] for f in folded]
            sizes = [len(s) for s in sets]
            n_fold = sum(sizes)
            flow = np.concatenate([flow, np.repeat(folded, sizes)])
            seqs = np.concatenate(
                [seqs, np.fromiter(chain.from_iterable(sets), np.int64, n_fold)]
            )
            pos = np.concatenate([pos, np.zeros(n_fold, dtype=np.int64)])
            dep = np.concatenate([dep, np.zeros(n_fold, dtype=bool)])
        order = stable_order((seqs, flow))
        f = flow[order]
        s = seqs[order]
        m = int(f.size)
        first = np.empty(m, dtype=bool)
        first[0] = True
        np.not_equal(f[1:], f[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        gid = np.cumsum(first) - 1
        flows = f[starts].tolist()
        expected = self._next_expected
        exp0 = np.array([expected.get(x, 0) for x in flows], dtype=np.int64)
        base = exp0[gid]
        bad = s < base
        bad[1:] |= (s[1:] == s[:-1]) & ~first[1:]
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"flow {int(f[i])} seq {int(s[i])} accounted twice "
                f"(expected >= {int(base[i])})"
            )
        in_seq = s == base + (np.arange(m) - starts[gid])
        # per-flow running maximum of batch positions, in seq order:
        # offset each flow's positions past the previous flow's
        key = gid * (n + 1) + pos[order]
        in_order = in_seq & (np.maximum.accumulate(key) == key)
        n_dep = int(np.count_nonzero(dep))
        self.accounted += n
        self.departed += n_dep
        self.out_of_order += n_dep - int(np.count_nonzero(in_order & dep[order]))
        moved = np.add.reduceat(in_seq, starts, dtype=np.int64)
        hit = np.flatnonzero(moved)
        expected.update(
            zip(f[starts[hit]].tolist(), (exp0[hit] + moved[hit]).tolist())
        )
        for f_id in folded:
            del pending[f_id]
        early = np.flatnonzero(~in_seq)
        for f_id, s_id in zip(f[early].tolist(), s[early].tolist()):
            pending.setdefault(f_id, set()).add(s_id)

    @property
    def in_flight_gaps(self) -> int:
        """Number of sequences accounted early whose predecessors are
        still in the system (diagnostic)."""
        return sum(len(s) for s in self._pending.values())

    def ooo_fraction(self) -> float:
        """Out-of-order departures / total departures (0 when none)."""
        if self.departed == 0:
            return 0.0
        return self.out_of_order / self.departed
