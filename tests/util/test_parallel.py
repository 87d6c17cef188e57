"""Tests for the process pool and the parallel map facade."""

import os

import pytest

from repro.errors import ConfigError
from repro.util.parallel import (
    ParallelTaskError,
    ProcessPool,
    default_jobs,
    in_pool_worker,
    parallel_map,
    shared_pool,
)


def square(x):
    return x * x


def pid_of(_x):
    return os.getpid()


def explode_on_three(x):
    if x == 3:
        raise ValueError("boom")
    return x


class TestParallelMap:
    def test_inline_preserves_order(self):
        assert parallel_map(square, [3, 1, 2], jobs=1) == [9, 1, 4]

    def test_parallel_preserves_order(self):
        assert parallel_map(square, list(range(10)), jobs=2) == [
            x * x for x in range(10)
        ]

    def test_auto_jobs(self):
        assert parallel_map(square, [1, 2], jobs=0) == [1, 4]

    def test_negative_jobs_rejected(self):
        with pytest.raises(ConfigError, match=r"^jobs must be >= 0, got -1$"):
            parallel_map(square, [1], jobs=-1)

    def test_empty(self):
        assert parallel_map(square, [], jobs=4) == []

    def test_single_item_stays_inline(self):
        assert parallel_map(pid_of, [1], jobs=4) == [os.getpid()]

    def test_workers_actually_fork(self):
        pids = set(parallel_map(pid_of, list(range(8)), jobs=4))
        # at least one task ran outside this process
        assert pids - {os.getpid()}

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestReproJobsOverride:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_env_override_not_capped(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "64")
        assert default_jobs() == 64

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_invalid_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ConfigError, match="^REPRO_JOBS must be "):
            default_jobs()

    def test_unset_uses_heuristic(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert 1 <= default_jobs() <= 8


class TestWorkerErrors:
    def test_pool_failure_names_the_item(self):
        with pytest.raises(ParallelTaskError) as err:
            parallel_map(explode_on_three, [1, 2, 3, 4], jobs=2)
        assert err.value.item_repr == "3"
        assert "ValueError" in str(err.value)
        assert "boom" in str(err.value)

    def test_inline_failure_raises_original(self):
        # jobs=1 keeps the plain traceback: no wrapping
        with pytest.raises(ValueError):
            parallel_map(explode_on_three, [1, 3], jobs=1)

    def test_error_survives_pickle(self):
        import pickle

        err = ParallelTaskError.wrap(("T1", 7), ValueError("bad rate"))
        back = pickle.loads(pickle.dumps(err))
        assert back.item_repr == repr(("T1", 7))
        assert "bad rate" in str(back)


def stash(pair):
    """Drop a value into the worker's module state (sticky-slot probe)."""
    import repro.util.parallel as mod

    key, value = pair
    store = getattr(mod, "_test_stash", None)
    if store is None:
        store = mod._test_stash = {}
    if value is not None:
        store[key] = value
    return store.get(key)


def worker_flag(_x):
    return in_pool_worker()


def nested_map(items):
    # a pool worker fanning out again must degrade to inline execution
    return parallel_map(pid_of, items, jobs=4)


class TestProcessPool:
    def test_workers_persist_across_batches(self):
        with ProcessPool(2) as pool:
            first = pool.map(pid_of, range(4))
            second = pool.map(pid_of, range(4))
        assert set(first) == set(second)  # same processes served both
        assert os.getpid() not in first

    def test_sticky_slot_keeps_worker_state(self):
        with ProcessPool(2) as pool:
            assert pool.call(0, stash, ("k", "v0")) == "v0"
            pool.call(1, stash, ("k", "v1"))
            # slot 0 still holds its own value, untouched by slot 1
            assert pool.call(0, stash, ("k", None)) == "v0"
            # indexes wrap modulo the pool size
            assert pool.call(2, stash, ("k", None)) == "v0"

    def test_map_preserves_order(self):
        with ProcessPool(3) as pool:
            assert pool.map(square, range(10)) == [x * x for x in range(10)]

    def test_scatter_reports_first_error_and_stays_usable(self):
        with ProcessPool(2) as pool:
            with pytest.raises(ParallelTaskError) as err:
                pool.scatter([(i, explode_on_three, i) for i in range(6)])
            assert err.value.item_repr == "3"
            # the failure drained cleanly: the pool still works
            assert pool.map(square, [5, 6]) == [25, 36]

    def test_worker_env_flag(self):
        with ProcessPool(1) as pool:
            assert pool.map(worker_flag, [0]) == [True]
        assert not in_pool_worker()

    def test_nested_parallel_map_runs_inline(self):
        with ProcessPool(1) as pool:
            pids = pool.call(0, nested_map, [1, 2, 3])
        # all inner tasks ran in the (single) worker process itself
        assert len(set(pids)) == 1
        assert os.getpid() not in pids

    def test_shutdown_idempotent_and_rejects_new_work(self):
        pool = ProcessPool(1)
        pool.map(square, [2])
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.call(0, square, 2)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            ProcessPool(0)

    def test_shared_pool_reused_and_grows(self):
        a = shared_pool(2)
        assert shared_pool(1) is a  # large enough: reused
        b = shared_pool(a.size + 1)
        assert b.size == a.size + 1


class TestScatterStarts:
    def test_every_slot_starts_before_the_first_send(self, monkeypatch):
        # a send blocks until its worker has booted and read the whole
        # payload (4 MiB is far past a pipe buffer): a slot started after
        # that send would wait out another slot's boot
        from multiprocessing.connection import Connection

        events = []
        start = ProcessPool._worker
        send = Connection.send

        def logged_start(pool, slot):
            if pool._slots[slot] is None:
                events.append(f"start {slot}")
            return start(pool, slot)

        def logged_send(conn, obj):
            events.append("send")
            return send(conn, obj)

        monkeypatch.setattr(ProcessPool, "_worker", logged_start)
        monkeypatch.setattr(Connection, "send", logged_send)
        payload = bytes(4 << 20)
        with ProcessPool(2) as pool:
            got = pool.scatter([(0, len, payload), (1, len, payload)])
        assert got == [4 << 20, 4 << 20]
        first_send = events.index("send")
        assert sorted(events[:first_send]) == ["start 0", "start 1"]

    def test_local_work_runs_while_tasks_are_in_flight(self):
        ran = []
        with ProcessPool(2) as pool:
            got = pool.scatter(
                [(0, square, 3), (1, square, 4)], local=lambda: ran.append(1)
            )
        assert got == [9, 16]
        assert ran == [1]

    def test_local_error_is_raised_after_the_pool_drains(self):
        def local():
            raise KeyError("local shard")

        with ProcessPool(2) as pool:
            with pytest.raises(KeyError, match="local shard"):
                pool.scatter([(0, pid_of, 0), (1, pid_of, 1)], local=local)
            # both replies were collected: the next batch reads its own
            assert pool.map(square, [5, 6]) == [25, 36]


    def test_unpicklable_item_is_raised_after_the_pool_drains(self):
        import pickle

        with ProcessPool(2) as pool:
            with pytest.raises((pickle.PicklingError, AttributeError)):
                pool.scatter([(0, square, 2), (1, square, lambda: 0)])
            assert pool.map(square, [5, 6]) == [25, 36]


class TestExperimentsIntegration:
    def test_fig7_jobs_matches_serial(self):
        from repro.experiments import fig7

        serial = fig7.run(quick=True, scenarios=("T1",), seed=0)
        parallel = fig7.run(quick=True, scenarios=("T1",), seed=0, jobs=2)
        assert serial.rows == parallel.rows
