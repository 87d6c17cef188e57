"""Order *restoration* at egress — the alternative the paper argues
against (Sec. VI, Shi et al. [35]).

Instead of preserving order inside the processor, packets may be
processed out of order and re-sequenced in an egress buffer just before
they leave.  The paper's criticism: the buffer has "considerable
storage overheads" and does nothing for flow locality.  This module
quantifies that trade-off on a recorded departure sequence:

* :func:`restoration_cost` — the buffer occupancy needed to restore
  order *fully* (max and mean packets resident);
* :class:`RestorationBuffer` — a bounded re-sequencer: early packets
  wait for their predecessors; when the buffer overflows, the oldest
  resident is released out of order (what real hardware does), so a
  bounded buffer converts storage into residual reorder.

Feed either with ``SimReport.departures`` (record with
``SimConfig(record_departures=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError

__all__ = ["RestorationBuffer", "RestorationResult", "restoration_cost"]


@dataclass(frozen=True)
class RestorationResult:
    """Outcome of pushing a departure sequence through a buffer."""

    released: int
    residual_out_of_order: int
    overflow_releases: int
    max_occupancy: int
    mean_occupancy: float

    @property
    def residual_fraction(self) -> float:
        return self.residual_out_of_order / self.released if self.released else 0.0


class RestorationBuffer:
    """A bounded egress re-sequencer.

    Packets of each flow must leave in sequence order.  An arriving
    packet whose predecessors have all left is released immediately
    (and may unlock buffered successors).  Otherwise it is buffered.
    When the buffer is full, the *oldest* buffered packet is forced out
    — it leaves out of order, and sequencing for its flow skips past it
    (the downstream receiver sees a reorder, exactly once).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._next: dict[int, int] = {}       # flow -> next seq to release
        self._held: dict[tuple[int, int], int] = {}  # (flow, seq) -> arrival idx
        self._skipped: set[tuple[int, int]] = set()  # dropped upstream
        self._arrival = 0
        self.released = 0
        self.residual_out_of_order = 0
        self.overflow_releases = 0
        self.max_occupancy = 0
        self._occupancy_sum = 0
        self._steps = 0

    def __len__(self) -> int:
        return len(self._held)

    def _release_ready(self, flow: int) -> None:
        """Release any buffered packets now in sequence for *flow*
        (sequence holes left by upstream drops are consumed too)."""
        nxt = self._next.get(flow, 0)
        while True:
            if (flow, nxt) in self._held:
                del self._held[(flow, nxt)]
                self.released += 1
            elif (flow, nxt) in self._skipped:
                self._skipped.discard((flow, nxt))
            else:
                break
            nxt += 1
        self._next[flow] = nxt

    def skip(self, flow: int, seq: int) -> None:
        """The packet was dropped upstream and will never arrive; its
        successors must not wait for it."""
        if seq < self._next.get(flow, 0):
            return
        self._skipped.add((flow, seq))
        self._release_ready(flow)

    def push(self, flow: int, seq: int) -> None:
        """One departing packet reaches the egress buffer."""
        self._arrival += 1
        nxt = self._next.get(flow, 0)
        if seq == nxt:
            self.released += 1
            self._next[flow] = nxt + 1
            self._release_ready(flow)
        elif seq < nxt:
            # predecessor already skipped by an overflow: release now,
            # it is out of order for the receiver
            self.released += 1
            self.residual_out_of_order += 1
        else:
            self._held[(flow, seq)] = self._arrival
            if len(self._held) > self.capacity:
                self._force_oldest()
        if len(self._held) > self.max_occupancy:
            self.max_occupancy = len(self._held)
        self._occupancy_sum += len(self._held)
        self._steps += 1

    def _force_oldest(self) -> None:
        """Overflow: evict the longest-waiting packet out of order."""
        (flow, seq), _ = min(self._held.items(), key=lambda kv: kv[1])
        del self._held[(flow, seq)]
        self.released += 1
        self.residual_out_of_order += 1
        self.overflow_releases += 1
        # sequencing skips everything up to and including the evictee
        if seq >= self._next.get(flow, 0):
            self._next[flow] = seq + 1
            self._release_ready(flow)

    def flush(self) -> None:
        """End of stream: release everything still held, in flow/seq
        order (these were waiting for packets that never departed —
        drops — so they are NOT counted as reordered)."""
        for flow, seq in sorted(self._held):
            self.released += 1
            self._next[flow] = max(self._next.get(flow, 0), seq + 1)
        self._held.clear()

    def result(self) -> RestorationResult:
        return RestorationResult(
            released=self.released,
            residual_out_of_order=self.residual_out_of_order,
            overflow_releases=self.overflow_releases,
            max_occupancy=self.max_occupancy,
            mean_occupancy=self._occupancy_sum / self._steps if self._steps else 0.0,
        )


def restoration_cost(
    departures: tuple[tuple[int, int, int], ...] | list[tuple[int, int, int]],
    capacity: int | None = None,
    drops: tuple[tuple[int, int, int], ...] | list[tuple[int, int, int]] = (),
) -> RestorationResult:
    """Push a ``(flow, seq, depart_ns)`` sequence through a buffer.

    With ``capacity=None`` the buffer is effectively unbounded, so
    ``max_occupancy`` reports the storage a *full* restoration needs
    (the paper's "considerable storage overheads") and the residual
    reorder is 0 for packets whose predecessors departed.

    ``drops`` are upstream losses ``(flow, seq, drop_ns)``: the buffer
    is told about each at its timestamp so successors of a dropped
    packet do not wait for it (real re-sequencers use timeouts for
    this; the drop feed is the zero-timeout idealisation).  Record both
    feeds with ``SimConfig(record_departures=True)``.
    """
    buf = RestorationBuffer(capacity if capacity is not None else 1 << 60)
    merged = [(t, 1, flow, seq) for flow, seq, t in departures]
    merged += [(t, 0, flow, seq) for flow, seq, t in drops]
    merged.sort()
    for _t, is_depart, flow, seq in merged:
        if is_depart:
            buf.push(flow, seq)
        else:
            buf.skip(flow, seq)
    buf.flush()
    return buf.result()
