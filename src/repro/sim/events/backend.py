"""The span drain's phase-1 kernel: one core's FIFO recurrence.

The batched drain in :mod:`repro.sim.events.span` splits each span into
a **pure compute** phase (per-core FIFO recurrences — where the packet
rate is spent) and a **commit** phase (vectorized numpy bookkeeping).
This module owns the compute phase: :func:`simulate_core`, run as plain
Python over unboxed list columns.  :class:`NumpyBackend` hands it to the
span driver through one ``core_fn()`` call per kernel, the single seam
a profiler wraps to time phase 1.

State-Compute Replication (Xu et al., PAPERS.md) is the shape: the
packet-rate recurrence runs here over replicated scalar state copies,
while per-flow/global state is reconciled once per span by the commit
phase.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["NumpyBackend", "OUT_SLOTS", "simulate_core"]


def simulate_core(
    core_id,
    n_rows,      # total rows: [busy?] + queued prelude + span arrivals
    n_pre,       # prelude rows (busy + queued); arrivals start here
    has_busy,    # 1 when row 0 is the in-flight packet, else 0
    busy_fin,    # its completion time (undefined when idle)
    arr_t,       # [n_rows] arrival times (admission driver for span rows)
    proc,        # [n_rows] nominal service ns (eq. 3 without penalties)
    sid,         # [n_rows] service ids
    floc,        # [n_rows] dense flow index
    flow_last,   # [n_flows] dense last-core overlay (mutated)
    migrated,    # [n_flows] migration flags 0/1 (mutated)
    last_sid,    # core_last_service at span start
    cap,         # queue capacity
    fm_pen,
    cc_pen,
    t_h,         # drain horizon: the span's last global arrival time
    # preallocated outputs, all [n_rows(+1)]:
    order_buf,   # rows in service order (busy prelude first)
    fin_buf,     # completion time per served row, aligned with order_buf
    kind_buf,    # 1 = started on an idle-core arrival, 0 = queue pop
    drop_buf,    # dropped row ids, first n_drops valid
    queue_buf,   # FIFO ring storage
    out,         # [OUT_SLOTS] scalar outputs (see unpacking in span.py)
):
    """One core's span recurrence: admit / drop / start / complete.

    Bit-for-bit the scalar kernel's per-core behaviour: completions at
    or before an arrival instant drain first, a full queue drops, an
    idle core starts the arrival immediately, and after the last arrival completions keep
    chaining up to *t_h* (the global arrival loop would have drained
    them inside the span).  Flow-migration and cold-cache penalties
    mutate the replicated ``flow_last``/``last_sid`` copies exactly as
    ``start_packet`` would.

    Pure with respect to simulator state: everything it writes is a
    caller-owned buffer or copy, so a bail discards the attempt at zero
    cost.  Returns nothing; scalars land in ``out``.
    """
    head = 0
    tail = 0
    q_start = has_busy
    for r in range(q_start, n_pre):
        queue_buf[tail] = r
        tail += 1
    served = 0
    if has_busy:
        order_buf[0] = 0
        fin_buf[0] = busy_fin
        kind_buf[0] = 0
        served = 1
    cur = 0 if has_busy else -1
    cur_fin = busy_fin if has_busy else 0
    fm = 0
    cc = 0
    busy_add = 0
    n_drops = 0
    r = n_pre
    while r < n_rows:
        t = arr_t[r]
        while cur >= 0 and cur_fin <= t:
            # completion: pop the FIFO or go idle
            if head < tail:
                nxt = queue_buf[head]
                head += 1
                p = proc[nxt]
                f = floc[nxt]
                last = flow_last[f]
                if last >= 0 and last != core_id:
                    p += fm_pen
                    fm += 1
                    migrated[f] = 1
                flow_last[f] = core_id
                s = sid[nxt]
                if last_sid != s:
                    if last_sid >= 0:
                        p += cc_pen
                        cc += 1
                    last_sid = s
                busy_add += p
                order_buf[served] = nxt
                fin_buf[served] = cur_fin + p
                kind_buf[served] = 0
                served += 1
                cur = nxt
                cur_fin = cur_fin + p
            else:
                cur = -1
        occ = tail - head
        if cur >= 0:
            if occ >= cap:
                drop_buf[n_drops] = r
                n_drops += 1
            else:
                queue_buf[tail] = r
                tail += 1
        else:
            p = proc[r]
            f = floc[r]
            last = flow_last[f]
            if last >= 0 and last != core_id:
                p += fm_pen
                fm += 1
                migrated[f] = 1
            flow_last[f] = core_id
            s = sid[r]
            if last_sid != s:
                if last_sid >= 0:
                    p += cc_pen
                    cc += 1
                last_sid = s
            busy_add += p
            order_buf[served] = r
            fin_buf[served] = t + p
            kind_buf[served] = 1
            served += 1
            cur = r
            cur_fin = t + p
        r += 1
    # post-arrival drain: the global loop's complete_until calls keep
    # popping this core's chain while later arrivals land elsewhere
    while cur >= 0 and cur_fin <= t_h:
        if head < tail:
            nxt = queue_buf[head]
            head += 1
            p = proc[nxt]
            f = floc[nxt]
            last = flow_last[f]
            if last >= 0 and last != core_id:
                p += fm_pen
                fm += 1
                migrated[f] = 1
            flow_last[f] = core_id
            s = sid[nxt]
            if last_sid != s:
                if last_sid >= 0:
                    p += cc_pen
                    cc += 1
                last_sid = s
            busy_add += p
            order_buf[served] = nxt
            fin_buf[served] = cur_fin + p
            kind_buf[served] = 0
            served += 1
            cur = nxt
            cur_fin = cur_fin + p
        else:
            cur = -1
    # departed = the service-order prefix with fin <= t_h (fins are
    # strictly increasing along the chain)
    n_dep = 0
    while n_dep < served and fin_buf[n_dep] <= t_h:
        n_dep += 1
    out[0] = served
    out[1] = n_dep
    out[2] = cur
    out[3] = cur_fin if cur >= 0 else -1
    out[4] = head
    out[5] = tail
    out[6] = fm
    out[7] = cc
    out[8] = busy_add
    out[9] = n_drops
    out[10] = last_sid


#: scalar-output slot count for the ``out`` buffer above
OUT_SLOTS = 11


class NumpyBackend:
    """Interpreted phase 1: :func:`simulate_core` over plain lists."""

    def core_fn(self) -> Callable[..., Any]:
        return simulate_core
