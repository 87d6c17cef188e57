"""The batched span drain: arrival columns in, committed state out.

PR 5 vectorized the *scheduling* decision; the wall moved to the event
loop itself — one heap push/pop plus ~20 lines of Python bookkeeping
per packet.  This module removes that per-packet work for the common
case by draining a whole **span** of planned arrivals at once:

1. **Phase 1 — pure compute.**  Each core's span is an independent
   single-server FIFO recurrence (its in-flight packet, its queued
   backlog, its share of the planned arrivals).  The
   :func:`~repro.sim.events.backend.simulate_core` kernel runs it per
   core over replicated copies of the shared state (flow→last-core,
   migration flags).  Nothing global is touched, so a bail costs
   nothing.
2. **Phase 2 — vectorized commit.**  The per-core results are laid
   end to end in one set of arrays and merged back into the exact
   scalar-kernel state: event seqs are assigned in the precise global
   start order the scalar loop would have produced (see below),
   queues and flow state are committed with numpy gathers, the
   pending set of ``SimState.heap`` is replaced in place, and the
   departures and drops are booked through the kernel's one egress
   booking (see below).

**Exactness, not approximation.**  The scalar closures remain the
bit-identity oracle; a span only commits when its semantics are
provably identical, and otherwise *bails* to scalar dispatch:

* an attached probe (it samples per arrival) or fault injector,
  killed packets, degraded core speeds or downed queues — bail;
* a flow resident on one core (busy/queued) while the plan maps it to
  another — the relative order of their flow-state writes would be
  cross-core — bail;
* a zero nominal service time (completions could tie their own
  starts) — bail.

A plan never reads queue occupancy (the ``assign_batch`` contract), so
once a span passes these checks every planned row commits.

**Exact event seqs.**  The scalar loop pushes one completion event per
started packet, seq-numbered in global start order, and a checkpoint
(or a same-timestamp pop) exposes those seqs — so the commit must
reproduce them bit for bit.  Start order is reconstructed from each
start's *trigger*: an idle-core start triggers at its arrival instant
(after all completions ≤ it — ``complete_until`` runs first), a
queue-pop start triggers at its predecessor's completion ``(fin,
seq)``.  A stable lexsort by (trigger time, trigger class, arrival
index) resolves everything except multiple queue-pop starts sharing
one trigger *time* across cores; those groups are fixed up in trigger
``seq`` order, which is well-founded because a trigger always starts
strictly earlier than the start it triggers (service times are
positive), so its own rank is already final.

**Egress booking.**  The span's departures and drops go to
:meth:`~repro.sim.kernel.SimKernel._book` as one batch — merged into
the scalar loop's accounting order for the reorder detector, and as
the two streams phase 2 built for the counters and records.  It is the
same booking the scalar loop's egress log settles through: counters,
latencies, records and one
:meth:`~repro.sim.reorder.ReorderDetector.account_batch` call, which
ends in exactly the state the per-event ``on_depart``/``on_drop`` calls
would leave (the batch twin in ``tests/sim/test_reorder.py`` pins
that).
"""

from __future__ import annotations

import time
from heapq import heapify
from itertools import chain

import numpy as np

from repro.sim.events.backend import OUT_SLOTS, NumpyBackend
from repro.util.sorting import stable_order

__all__ = ["SpanDriver"]

#: spans shorter than this go scalar — setup cost beats the savings
_MIN_SPAN = 64

#: after a bail, retry the span path once this many scalar arrivals
#: later (a bail cause is often transient: a flow still resident on
#: another core, a replan boundary).  Kept small — the kernel doubles
#: it per consecutive bail up to its ceiling, so persistent bail
#: causes still settle at a cheap cadence while a short episode does
#: not cost hundreds of scalar arrivals
RETRY_STRIDE = 64

#: spans longer than this are split: a work bound only, committed
#: results are identical for any attempt size
_MAX_SPAN = 1 << 14


class SpanDriver:
    """Per-kernel orchestrator for the batched span drain.

    Owned by one :class:`~repro.sim.kernel.SimKernel`, which calls
    :meth:`attempt` from its arrival loop and passes itself in; the
    driver commits as many consecutive spans as stay eligible and
    returns the new local arrival index (unchanged on an immediate
    bail).  The driver keeps no reference to the kernel, so the pair
    forms no reference cycle and a finished run's window, state and
    latency list are freed as soon as the kernel is dropped.
    """

    def __init__(self) -> None:
        self._fn = NumpyBackend().core_fn()
        #: committed spans / bailed attempts / packets committed —
        #: profiling signals (``SimKernel.span_stats``)
        self.spans_committed = 0
        self.spans_bailed = 0
        self.packets_spanned = 0
        #: wall-clock phase split of committed spans (perf_counter_ns):
        #: phase-1 per-core simulation vs phase-2 state commit
        #: (including the scheduler's span commit).  Plan time lives on
        #: the kernel (``SimKernel.plan_ns``) — together the three make
        #: the bench report's plan/drain/commit breakdown.
        self.drain_ns = 0
        self.commit_ns = 0

    # ------------------------------------------------------------------
    def attempt(self, k, li: int, horizon_ns: int) -> int:
        """Drain consecutive spans of kernel *k* starting at local
        index *li*; stop at the first bail or at *horizon_ns*.  Returns
        the new li."""
        while True:
            li2 = self._one_span(k, li, horizon_ns)
            if li2 == li:
                self.spans_bailed += 1
                return li
            li = li2

    # ------------------------------------------------------------------
    def _one_span(self, k, li: int, horizon_ns: int) -> int:
        st = k.state
        cfg = k.config
        sched = k.scheduler

        # the kernel attempts spans for every scheduler with a plan;
        # its per-packet bookkeeping (if any) has a span form
        commit_span = sched.batch_commit_span
        if st.killed_pkts or k.injector is not None or k.probe is not None:
            return li
        n_cores = cfg.num_cores
        if st.core_speed.count(1.0) != n_cores:
            return li
        queues = st.queues
        q_items = queues.items
        if True in queues.down:
            return li
        core_busy = st.core_busy
        core_current = st.core_current_pkt
        for c in range(n_cores):
            if not core_busy[c] and q_items[c]:
                return li  # broken invariant: queued work on an idle core

        # every pending event must be the completion of a busy core's
        # current packet (no timed events, exactly one per busy core)
        heap = st.heap
        busy_ev: dict[int, tuple[int, int]] = {}
        for t_ev, s_ev, payload in heap:
            if type(payload) is not tuple or len(payload) != 2:
                return li
            c_ev, p_ev = payload
            if c_ev < 0 or c_ev in busy_ev or core_current[c_ev] != p_ev:
                return li
            busy_ev[c_ev] = (t_ev, s_ev)
        for c in range(n_cores):
            if core_busy[c] != (c in busy_ev):
                return li

        # -- column coverage (same replan rule as the scalar loop) -----
        if sched.map_epoch != k._col_epoch or (
            li >= k._col_hi and li > k._col_lo
        ):
            k._plan_column(li)
        cl = k._col_lo
        if not (cl <= li < k._col_hi) or k._col_arr is None:
            return li
        win = k.window
        nominal = k._nominal
        if nominal is None:
            return li
        arrival = win.arrival_ns
        hi = li + int(
            np.searchsorted(arrival[li : k._col_hi], horizon_ns, side="right")
        )
        if hi - li < _MIN_SPAN:
            return li
        if hi - li > _MAX_SPAN:
            hi = li + _MAX_SPAN
        cores = np.asarray(k._col_arr[li - cl : hi - cl], dtype=np.int64)

        base = win.base
        arr_span = arrival[li:hi]
        fid_span = win.flow_id[li:hi]
        proc_span = nominal[li:hi]
        if int(proc_span.min()) <= 0:
            return li

        # -- prelude: per-core in-flight + queued packets --------------
        pre_pkts: list[list[int]] = []
        for c in range(n_cores):
            rows = [core_current[c]] if core_busy[c] else []
            rows.extend(q_items[c])
            pre_pkts.append(rows)
        n_pre = [len(rows) for rows in pre_pkts]
        pre_all = [g for rows in pre_pkts for g in rows]
        n_win = len(win)
        if pre_all:
            pre_lrow = np.asarray(pre_all, dtype=np.int64) - base
            if int(pre_lrow.min()) < 0 or int(pre_lrow.max()) >= n_win:
                return li  # prelude packet outside the live window
            if int(nominal[pre_lrow].min()) <= 0:
                return li
            pre_fid = win.flow_id[pre_lrow]
            pre_core = np.repeat(np.arange(n_cores, dtype=np.int64), n_pre)
        else:
            pre_lrow = np.empty(0, dtype=np.int64)
            pre_fid = np.empty(0, dtype=np.int64)
            pre_core = np.empty(0, dtype=np.int64)

        # -- dense flow table + cross-core conflict detection ----------
        all_fid = np.concatenate([pre_fid, np.asarray(fid_span, dtype=np.int64)])
        all_core = np.concatenate([pre_core, np.asarray(cores, dtype=np.int64)])
        uniq, inv = np.unique(all_fid, return_inverse=True)
        fcore = np.empty(uniq.size, dtype=np.int64)
        fcore[inv] = all_core  # last write wins
        if not np.array_equal(fcore[inv], all_core):
            return li  # a flow spans two cores: write order matters
        flow_last_core = st.flow_last_core
        uniq_list = uniq.tolist()
        init_last = [flow_last_core[f] for f in uniq_list]

        cap = cfg.queue_capacity
        fm_pen = cfg.fm_penalty_ns
        cc_pen = cfg.cc_penalty_ns
        fn = self._fn
        last_service = st.core_last_service

        # -- every core's rows, end to end -----------------------------
        # a stable sort by core keeps each core's prelude rows (in
        # service order) ahead of its span rows (in arrival order): the
        # rows simulate_core takes.  Core c owns slots row_off[c] ..
        # row_off[c + 1]; its local row r is slot row_off[c] + r.
        slot = stable_order((all_core,))
        row_off = np.searchsorted(all_core[slot], np.arange(n_cores + 1))
        s_lrow = np.concatenate([pre_lrow, np.arange(li, hi)])[slot]
        arr_l = arrival[s_lrow].tolist()  # prelude rows' are never read
        proc_l = nominal[s_lrow].tolist()
        sid_l = win.service_id[s_lrow].tolist()
        floc_l = inv[slot].tolist()
        row_off_l = row_off.tolist()

        # ==============================================================
        # Phase 1: per-core recurrences over replicated flow state.
        # ==============================================================
        t_drain0 = time.perf_counter_ns()
        t_h = int(arr_span[-1])
        flow_last = list(init_last)
        migrated = [0] * len(init_last)
        per_core = []
        for c in range(n_cores):
            lo, hi_c = row_off_l[c], row_off_l[c + 1]
            n_rows = hi_c - lo
            if n_rows == 0:
                per_core.append(None)
                continue
            hb = 1 if core_busy[c] else 0
            busy_fin = busy_ev[c][0] if hb else 0
            nb = n_rows + 1
            order_buf = [0] * nb
            fin_buf = [0] * nb
            kind_buf = [0] * nb
            drop_buf = [0] * nb
            queue_buf = [0] * nb
            out = [0] * OUT_SLOTS
            fn(
                c, n_rows, n_pre[c], hb, busy_fin,
                arr_l[lo:hi_c], proc_l[lo:hi_c], sid_l[lo:hi_c], floc_l[lo:hi_c],
                flow_last, migrated,
                last_service[c], cap, fm_pen, cc_pen, t_h,
                order_buf, fin_buf, kind_buf, drop_buf, queue_buf, out,
            )
            per_core.append(
                (order_buf, fin_buf, kind_buf, drop_buf, queue_buf, out)
            )
        self.drain_ns += time.perf_counter_ns() - t_drain0
        # spent: free them before the commit allocates its own arrays
        del arr_l, proc_l, sid_l, floc_l, slot

        # ==============================================================
        # Phase 2: commit.  From here on nothing can bail.
        # ==============================================================
        t_commit0 = time.perf_counter_ns()
        base_seq = st.seq
        metrics = st.metrics

        # -- per-core counters -----------------------------------------
        served = [0] * n_cores
        n_dep_c = [0] * n_cores
        n_drop_c = [0] * n_cores
        busy_ns = metrics.busy_ns_per_core
        for c in range(n_cores):
            r = per_core[c]
            if r is None:
                continue
            out = r[5]
            served[c] = out[0]
            n_dep_c[c] = out[1]
            n_drop_c[c] = out[9]
            busy_ns[c] += out[8]
            metrics.flow_migration_events += out[6]
            metrics.cold_cache_events += out[7]

        # -- event seqs and departures in exact pop order --------------
        busy_seq = [busy_ev[c][1] if core_busy[c] else -1 for c in range(n_cores)]
        dep_fin, dep_lrow, n_started, last_seq = self._served(
            per_core, served, n_dep_c, busy_seq, s_lrow, row_off,
            arrival, li, base_seq,
        )
        n_dep_total = int(dep_fin.size)

        # -- drops in arrival order, with the core each was offered to -
        drop_row = np.fromiter(
            chain.from_iterable(
                r[3][:nd] for r, nd in zip(per_core, n_drop_c) if nd
            ),
            np.int64,
            sum(n_drop_c),
        )
        drop_core = np.repeat(np.arange(n_cores, dtype=np.int64), n_drop_c)
        drop_lrow = s_lrow[row_off[drop_core] + drop_row]
        by_arrival = np.argsort(drop_lrow)
        drop_lrow = drop_lrow[by_arrival]
        drop_core = drop_core[by_arrival]

        # -- arrivals --------------------------------------------------
        metrics.generated += hi - li
        gen_counts = np.bincount(
            win.service_id[li:hi], minlength=metrics.num_services
        )
        gps = metrics.generated_per_service
        for s_id in np.nonzero(gen_counts)[0].tolist():
            gps[s_id] += int(gen_counts[s_id])

        # -- egress, booked in the scalar loop's accounting order ------
        # complete_until(t) pops every fin <= t before the arrival at t
        # runs its drop.  Both streams come sorted (departures by (fin,
        # event seq), drops by arrival index), so one stable sort on
        # time merges them: it keeps each stream's order and puts
        # departures first at equal instants.
        if drop_lrow.size:
            order = np.argsort(
                np.concatenate([dep_fin, arrival[drop_lrow]]), kind="stable"
            )
            k._book(
                np.concatenate([dep_lrow, drop_lrow])[order],
                order >= n_dep_total,
                dep_lrow, dep_fin, drop_lrow, drop_core,
            )
        elif n_dep_total:
            k._book(
                dep_lrow, np.zeros(n_dep_total, dtype=bool),
                dep_lrow, dep_fin, drop_lrow, drop_core,
            )

        # -- flow state ------------------------------------------------
        mig = np.asarray(migrated, dtype=bool)
        if mig.any():
            st.flow_migrated[uniq[mig]] = True
        for f, c in zip(uniq_list, flow_last):
            flow_last_core[f] = c

        # -- core / queue / event state --------------------------------
        # each touched core's queue (then in-flight packet) as slots,
        # turned into packet ids by one gather
        slots: list[int] = []
        for c in range(n_cores):
            r = per_core[c]
            if r is not None:
                out = r[5]
                ro = row_off_l[c]
                slots += [ro + x for x in r[4][out[4] : out[5]]]
                slots.append(ro + max(out[2], 0))
        pkt_l = (base + s_lrow[slots]).tolist()
        occ = queues.occ  # no queue is down inside a span
        new_entries = []
        i = 0
        for c in range(n_cores):
            r = per_core[c]
            if r is None:
                # untouched core: its pre-existing event (if any) stays
                if c in busy_ev:
                    t_ev, s_ev = busy_ev[c]
                    new_entries.append((t_ev, s_ev, (c, core_current[c])))
                continue
            out = r[5]
            cur, cur_fin = out[2], out[3]
            i_cur = i + out[5] - out[4]
            items = q_items[c]
            items.clear()
            items.extend(pkt_l[i:i_cur])
            i = i_cur + 1
            occ[c] = len(items)
            last_service[c] = out[10]
            if cur >= 0:
                # the in-flight packet is always the last served entry
                pkt = pkt_l[i_cur]
                core_busy[c] = True
                core_current[c] = pkt
                new_entries.append((cur_fin, last_seq[c], (c, pkt)))
            else:
                core_busy[c] = False
                core_current[c] = -1
        # the kernel's closures bind the heap list: refill it in place
        heap[:] = new_entries
        heapify(heap)
        st.seq = base_seq + n_started
        if n_dep_total:
            st.last_pop_ns = int(dep_fin[-1])
            st.popped += n_dep_total

        # -- scheduler per-packet bookkeeping --------------------------
        if commit_span is not None:
            commit_span(win.flow_id[li:hi], win.flow_hash[li:hi])

        self.commit_ns += time.perf_counter_ns() - t_commit0
        self.spans_committed += 1
        self.packets_spanned += hi - li
        return hi

    # ------------------------------------------------------------------
    @staticmethod
    def _served(
        per_core, served, n_dep_c, busy_seq, s_lrow, row_off,
        arrival, li, base_seq,
    ):
        """Every core's served entries, end to end (core by core, each
        in service order): the exact event seq of each, and the
        departures in pop order.

        Returns ``(dep_fin, dep_lrow, n_started, last_seq)``: departure
        instants and window rows sorted by (fin, event seq), the number
        of starts, and per core the event seq of its last served entry
        (the in-flight packet's completion, when one remains).
        """
        n_ent = sum(served)
        e_core = np.repeat(np.arange(len(served)), served)
        ent_off = np.zeros(len(served) + 1, dtype=np.int64)
        np.cumsum(served, out=ent_off[1:])
        e_j = np.arange(n_ent, dtype=np.int64) - ent_off[e_core]

        def column(i: int) -> np.ndarray:
            return np.fromiter(
                chain.from_iterable(
                    r[i][:k] for r, k in zip(per_core, served) if k
                ),
                np.int64,
                n_ent,
            )

        e_lrow = s_lrow[row_off[e_core] + column(0)]
        e_fin = column(1)
        e_kind = column(2)
        busy_seq = np.asarray(busy_seq, dtype=np.int64)

        # -- started entries: all served except the pre-span busy heads
        head = (e_j == 0) & (busy_seq[e_core] >= 0)
        started = ~head
        g = np.flatnonzero(started)
        n_started = int(g.size)
        g_kind = e_kind[g]
        arr_start = g_kind == 1
        g_lrow = e_lrow[g]
        # trigger time: arrival instant for idle-core starts,
        # predecessor completion time for queue pops (a pop is never
        # its core's first entry, so g - 1 is its predecessor)
        pred = g - 1
        g_T = np.where(arr_start, arrival[g_lrow], e_fin[pred])
        g_tie = np.where(arr_start, g_lrow - li, 0)
        # a pop's predecessor as a started index (global), or -1 when
        # the trigger is the pre-span busy completion (seq g_prevseq)
        s_idx = np.cumsum(started) - 1
        g_prev = np.where(~arr_start & started[pred], s_idx[pred], -1)
        g_prevseq = busy_seq[e_core[g]]

        # -- exact global start ranks ----------------------------------
        # class 0 = queue-pop starts (complete_until runs before the
        # arrival dispatch at equal instants), class 1 = arrival starts
        # ordered by arrival index: g_kind is the class.
        ord0 = stable_order((g_tie, g_kind, g_T))
        rank = np.empty(n_started, dtype=np.int64)
        rank[ord0] = np.arange(n_started, dtype=np.int64)
        if n_started > 1:
            sT = g_T[ord0]
            sk0 = g_kind[ord0] == 0
            linked = np.zeros(n_started, dtype=bool)
            linked[1:] = (sT[1:] == sT[:-1]) & sk0[1:] & sk0[:-1]
            if linked.any():
                # fix up each multi-pop tie group in trigger-seq order;
                # left to right, so trigger ranks are already final
                # (``fixed`` holds the ranks earlier groups changed)
                member = linked.copy()
                member[:-1] |= linked[1:]
                at = np.flatnonzero(member)
                m_idx = ord0[at]
                trig = g_prev[m_idx]
                tseq = np.where(
                    trig < 0, g_prevseq[m_idx], base_seq + rank[trig]
                ).tolist()
                trig_l = trig.tolist()
                m_l = m_idx.tolist()
                at_l = at.tolist()
                heads = np.flatnonzero(~linked[at]).tolist()
                fixed: dict[int, int] = {}
                for a, b in zip(heads, heads[1:] + [len(at_l)]):
                    keyed = sorted(
                        (
                            base_seq + fixed[trig_l[x]]
                            if trig_l[x] in fixed
                            else tseq[x],
                            m_l[x],
                        )
                        for x in range(a, b)
                    )
                    lo = at_l[a]
                    for off, (_, m) in enumerate(keyed):
                        fixed[m] = lo + off
                rank[list(fixed)] = list(fixed.values())
        # each served entry's completion event seq: a busy head keeps
        # its pending event's, a start takes the seq of its start rank
        e_seq = busy_seq[e_core]
        e_seq[g] = base_seq + rank
        last_seq = e_seq[ent_off[1:] - 1].tolist() if n_ent else []

        # -- departures: each core's first n_dep entries, in pop order -
        dm = e_j < np.asarray(n_dep_c, dtype=np.int64)[e_core]
        dep_fin = e_fin[dm]
        ord_dep = stable_order((e_seq[dm], dep_fin))
        return dep_fin[ord_dep], e_lrow[dm][ord_dep], n_started, last_seq
