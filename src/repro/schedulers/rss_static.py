"""RSS — Receive-Side Scaling with a Toeplitz hash and a static
indirection table (the "what industry ships" baseline).

This is the NIC-side steering scheme every commodity server runs today:
a Toeplitz hash of the flow key (:mod:`repro.hashing.toeplitz`, with
the Microsoft/Intel default 40-byte key) indexes a small power-of-two
indirection table whose entries are cores, assigned round-robin at
startup and never touched again.  Perfect flow locality, zero packet
reordering — and zero adaptivity: skew lands wherever the hash puts it,
and a failed core keeps receiving its table entries' traffic
(black-holed) until an operator rewrites the table.

The point of carrying it in the zoo is the paper's core motivation made
concrete: the *choice of hash* does not fix skew-induced imbalance.
RSS's hash is cryptographically better-spread than CRC16, yet its
tournament rows show the same elephant-overload drops as
``hash-static`` — only the reordering column is flattered.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.hashing.toeplitz import ToeplitzHasher
from repro.schedulers.base import Scheduler, register_scheduler

__all__ = ["RSSStaticScheduler"]


@register_scheduler("rss-static")
class RSSStaticScheduler(Scheduler):
    """Toeplitz hash -> static indirection table -> core.

    The flow key fed to the Toeplitz hash is the 8-byte big-endian
    flow id (the trace pipeline's stable flow identity); the CRC16
    ``flow_hash`` argument is deliberately ignored — using a different
    hash than the rest of the zoo is this scheduler's entire reason to
    exist.
    """

    def __init__(
        self,
        key: bytes | None = None,
        indirection_entries: int = 128,
    ) -> None:
        super().__init__()
        if indirection_entries <= 0 or indirection_entries & (indirection_entries - 1):
            raise ConfigError(
                f"indirection_entries must be a positive power of two, "
                f"got {indirection_entries}"
            )
        self._hasher = ToeplitzHasher(key) if key is not None else ToeplitzHasher()
        self.indirection_entries = indirection_entries
        self._table: np.ndarray = np.empty(0, dtype=np.int64)
        #: per-flow memo of the (pure) Toeplitz bucket — an optimisation
        #: only, never part of the observable contract
        self._bucket_memo: dict[int, int] = {}

    def bind(self, loads) -> None:
        super().bind(loads)
        n = loads.num_cores
        # round-robin fill, exactly how drivers initialise the table
        self._table = (
            np.arange(self.indirection_entries, dtype=np.int64) % n
        )
        self._bucket_memo = {}

    @property
    def indirection_table(self) -> tuple[int, ...]:
        """The (static) indirection table, for diagnostics and tests."""
        return tuple(self._table.tolist())

    def _bucket(self, flow_id: int) -> int:
        bucket = self._bucket_memo.get(flow_id)
        if bucket is None:
            h = self._hasher.hash(flow_id.to_bytes(8, "big"))
            bucket = h & (self.indirection_entries - 1)
            self._bucket_memo[flow_id] = bucket
        return bucket

    def select_core(
        self, flow_id: int, service_id: int, flow_hash: int, t_ns: int
    ) -> int:
        return int(self._table[self._bucket(flow_id)])

    def assign_batch(self, flow_hash, service_id, flow_id, arrival_ns):
        # the table is never mutated after bind, so map_epoch never
        # bumps and one plan covers a whole window (same contract as
        # hash-static, different hash)
        rows = flow_id.astype(">i8").view(np.uint8).reshape(-1, 8)
        hashes = self._hasher.hash_batch(rows)
        buckets = (hashes & np.uint64(self.indirection_entries - 1)).astype(np.int64)
        return self._table[buckets]
