"""Process-parallel execution: a persistent spawn-context worker pool.

The experiment harnesses are embarrassingly parallel (one independent
simulation per scenario x scheduler), and the simulator is pure-Python
CPU-bound work, so processes — not threads — are the right tool.  Two
layers live here:

* :class:`ProcessPool` — a reusable pool of **persistent** spawn-context
  workers.  Workers survive across batches (no fork-per-task), each one
  is addressable by index (``call``/``scatter`` route a task to a
  *specific* worker, which is what the sharded coordinator needs: shard
  state lives in the worker process and every window must go back to
  the worker that holds it), and results come back in submission order.
* :func:`parallel_map` — the historical order-preserving map facade,
  now running over one shared :class:`ProcessPool` so repeated harness
  invocations in a process reuse the same workers.

The spawn start method is used unconditionally: it is the only start
method that is safe with the numpy/BLAS threading state the simulator
touches, and it keeps worker behaviour identical across platforms.
Task functions must be module-level (picklable) and take a single
argument; package everything else into that argument.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from collections import deque
from multiprocessing import connection as mpconn
from typing import Any, Callable, Iterable, TypeVar

from repro.errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "parallel_map",
    "default_jobs",
    "ParallelTaskError",
    "ProcessPool",
    "shared_pool",
    "in_pool_worker",
]

#: set in the environment of every pool worker — nested ``parallel_map``
#: calls inside a worker detect it and run inline (daemonic workers may
#: not spawn children, and a worker fanning out again would oversubscribe
#: the machine anyway)
_WORKER_ENV = "REPRO_POOL_WORKER"


class ParallelTaskError(RuntimeError):
    """A pool worker raised: carries *which* item failed.

    A worker exception crossing the process boundary loses the failing
    task's identity; this wrapper keeps the offending item (its repr)
    and the original error's type and message in its own message, so
    the failing scenario is identifiable from the parent-side
    traceback.
    """

    def __init__(self, message: str, item_repr: str = "?") -> None:
        super().__init__(message)
        self.item_repr = item_repr

    def __reduce__(self):
        # exceptions cross the process boundary by pickle; the default
        # reduce re-calls __init__ with args only, dropping item_repr
        return (type(self), (self.args[0], self.item_repr))

    @classmethod
    def wrap(cls, item, cause: BaseException) -> "ParallelTaskError":
        return cls(
            f"parallel task failed for item {item!r}: "
            f"{type(cause).__name__}: {cause}",
            item_repr=repr(item),
        )


def default_jobs() -> int:
    """A sensible worker count: the CPU count, capped at 8 (the
    harnesses rarely have more than 8 independent units).

    The ``REPRO_JOBS`` environment variable overrides the heuristic
    (any integer >= 1), so CI and batch drivers can pin the pool size
    without threading a flag through every harness.
    """
    env = os.environ.get("REPRO_JOBS")
    if env is not None:
        try:
            jobs = int(env)
        except ValueError:
            raise ConfigError(
                f"REPRO_JOBS must be an integer, got {env!r}"
            ) from None
        if jobs < 1:
            raise ConfigError(f"REPRO_JOBS must be >= 1, got {jobs}")
        return jobs
    return min(os.cpu_count() or 1, 8)


def in_pool_worker() -> bool:
    """True inside a :class:`ProcessPool` worker process."""
    return os.environ.get(_WORKER_ENV, "") not in ("", "0")


def _invoke(packed: tuple) -> R:
    """Run one task, labelling any failure with its item."""
    fn, item = packed
    try:
        return fn(item)
    except Exception as exc:
        raise ParallelTaskError.wrap(item, exc) from exc


def _worker_main(conn) -> None:
    """Worker loop: ``(fn, item)`` in, ``("ok", result)`` out.

    Failures come back as ``("err", ParallelTaskError)`` rather than
    killing the worker, so one bad task does not tear down the sticky
    state other tasks left in the process.
    """
    os.environ[_WORKER_ENV] = "1"
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg is None:  # shutdown sentinel
            break
        fn, item = msg
        try:
            payload = ("ok", fn(item))
        except Exception as exc:  # noqa: BLE001 — report, don't die
            payload = ("err", ParallelTaskError.wrap(item, exc))
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _Worker:
    __slots__ = ("proc", "conn")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn


class ProcessPool:
    """A persistent, index-addressable pool of spawn-context workers.

    Workers are spawned lazily (a batch starts every slot it uses that
    is not up yet) and persist until :meth:`shutdown` — submitting ten
    batches costs ten pipe round-trips per worker, not ten process
    launches.  ``call(i, ...)`` always lands on worker slot
    ``i % size``, which gives callers a *sticky* address: module-level
    state a task leaves behind in its worker (the sharded
    coordinator's resident shards) is reachable by every later task
    routed to the same slot.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self._ctx = multiprocessing.get_context("spawn")
        self._slots: list[_Worker | None] = [None] * workers
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self._slots)

    def _worker(self, slot: int) -> _Worker:
        if self._closed:
            raise RuntimeError("pool is shut down")
        w = self._slots[slot]
        if w is None:
            parent_conn, child_conn = self._ctx.Pipe()
            proc = self._ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            proc.start()
            child_conn.close()
            w = _Worker(proc, parent_conn)
            self._slots[slot] = w
        return w

    @staticmethod
    def _recv(w: _Worker):
        try:
            kind, value = w.conn.recv()
        except (EOFError, OSError):
            raise ParallelTaskError(
                "pool worker died mid-task (killed or crashed hard)"
            ) from None
        if kind == "err":
            raise value
        return value

    # ------------------------------------------------------------------
    def call(self, index: int, fn: Callable[[T], R], item: T) -> R:
        """Run ``fn(item)`` on worker slot ``index % size`` and wait."""
        w = self._worker(index % self.size)
        w.conn.send((fn, item))
        return self._recv(w)

    def scatter(
        self,
        calls: list[tuple[int, Callable, Any]],
        local: Callable[[], None] | None = None,
    ) -> list:
        """Run ``(slot_index, fn, item)`` tasks concurrently.

        Tasks routed to the same slot run sequentially in submission
        order (a slot is one process); distinct slots run in parallel.
        Every slot the calls use is started before the first task is
        sent, and each slot's first task is sent on a thread of its own:
        a send blocks until its worker has booted and read the whole
        payload, so no slot waits on another slot's boot.

        *local*, when given, runs in the calling process while the first
        tasks are in flight.  Results return in ``calls`` order.  The
        first failure — *local*'s own exception, else the first task's
        — is re-raised after every in-flight task has been collected,
        so the pool's pipes stay clean for the next batch.
        """
        results: list[Any] = [None] * len(calls)
        queues: dict[int, deque[int]] = {}
        for i, (index, _fn, _item) in enumerate(calls):
            queues.setdefault(index % self.size, deque()).append(i)
        workers = {slot: self._worker(slot) for slot in queues}
        inflight: dict[Any, tuple[int, int]] = {}  # conn -> (slot, call idx)
        errors: list[BaseException] = []  # local's first, then as they come

        def send(slot: int, i: int) -> None:
            _, fn, item = calls[i]
            try:
                workers[slot].conn.send((fn, item))
            except OSError:
                pass  # the worker died: collecting its reply says so
            except Exception as exc:  # noqa: BLE001 — e.g. an unpicklable item
                errors.append(exc)  # pickling failed before any byte went out
                return
            inflight[workers[slot].conn] = (slot, i)

        senders = [
            threading.Thread(target=send, args=(slot, q.popleft()), daemon=True)
            for slot, q in queues.items()
        ]
        for t in senders:
            t.start()
        if local is not None:
            try:
                local()
            except Exception as exc:  # noqa: BLE001 — drain the pool first
                errors.insert(0, exc)
        for t in senders:
            t.join()
        while inflight:
            for conn in mpconn.wait(list(inflight)):
                slot, i = inflight.pop(conn)
                try:
                    kind, value = conn.recv()
                except (EOFError, OSError):
                    kind, value = "err", ParallelTaskError(
                        "pool worker died mid-task (killed or crashed hard)"
                    )
                if kind == "err":
                    errors.append(value)
                else:
                    results[i] = value
                if queues[slot] and not errors:
                    send(slot, queues[slot].popleft())
        if errors:
            raise errors[0]
        return results

    def map(
        self, fn: Callable[[T], R], items: Iterable[T], limit: int | None = None
    ) -> list[R]:
        """Order-preserving parallel map over at most *limit* slots."""
        items = list(items)
        slots = self.size if limit is None else max(1, min(limit, self.size))
        return self.scatter([(i % slots, fn, x) for i, x in enumerate(items)])

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for w in self._slots:
            if w is None:
                continue
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            w.conn.close()
        for w in self._slots:
            if w is None:
                continue
            w.proc.join(timeout=5)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join()
        self._slots = [None] * len(self._slots)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_SHARED: ProcessPool | None = None


def shared_pool(workers: int) -> ProcessPool:
    """The module-wide persistent pool, grown to >= *workers* slots.

    Growing replaces the pool (spawn workers are cheap relative to the
    work they host, and slots are only identities between batches that
    opt into stickiness); shrinking never happens — a larger pool
    serves smaller requests via :meth:`ProcessPool.map`'s ``limit``.
    """
    global _SHARED
    if _SHARED is None or _SHARED.size < workers:
        if _SHARED is not None:
            _SHARED.shutdown()
        _SHARED = ProcessPool(workers)
    return _SHARED


@atexit.register
def _shutdown_shared() -> None:
    global _SHARED
    if _SHARED is not None:
        _SHARED.shutdown()
        _SHARED = None


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int = 1,
) -> list[R]:
    """``[fn(x) for x in items]``, optionally across processes.

    Order is preserved.  ``jobs=1`` runs inline; ``jobs=0`` means
    "auto" (:func:`default_jobs`).  A task that raises in a pool worker
    surfaces as :class:`ParallelTaskError` naming the failing item (the
    inline path raises the original exception unwrapped — its traceback
    already points at the task).  Inside a pool worker the call always
    runs inline: daemonic workers cannot spawn children, and nesting
    pools would oversubscribe the machine regardless.
    """
    items = list(items)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = default_jobs()
    if jobs == 1 or len(items) <= 1 or in_pool_worker():
        return [fn(x) for x in items]
    workers = min(jobs, len(items))
    return shared_pool(workers).map(fn, items, limit=workers)
