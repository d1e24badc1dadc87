"""The shared worker pool and cooperative cancellation primitives."""

import threading

import numpy as np
import pytest

from repro.exec import (
    CancellationToken,
    ParallelExecutor,
    WorkerPool,
    parallel_mttkrp,
)
from repro.tensor import poisson_tensor
from repro.util.errors import CancelledError, ConfigError

pytestmark = pytest.mark.parallel_exec


class TestCancellationToken:
    def test_initially_clear(self):
        token = CancellationToken()
        assert not token.cancelled
        token.raise_if_cancelled()  # no-op

    def test_cancel_is_idempotent_and_first_call_wins(self):
        token = CancellationToken()
        assert token.cancel() is True
        assert token.cancel() is False
        assert token.cancelled

    def test_raise_if_cancelled(self):
        token = CancellationToken()
        token.cancel()
        with pytest.raises(CancelledError, match="my work"):
            token.raise_if_cancelled("my work")

    def test_first_call_race_single_winner(self):
        # Many threads cancel at once; exactly one sees True.
        token = CancellationToken()
        wins = []
        barrier = threading.Barrier(8)

        def contender():
            barrier.wait()
            if token.cancel():
                wins.append(1)

        threads = [threading.Thread(target=contender) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1


class TestWorkerPool:
    def test_submit_and_result(self):
        with WorkerPool(n_threads=2) as pool:
            futures = [pool.submit(pow, 2, i) for i in range(5)]
            assert [f.result() for f in futures] == [1, 2, 4, 8, 16]
            assert pool.n_submitted == 5

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            WorkerPool(n_threads=0)

    def test_submit_after_shutdown_raises(self):
        pool = WorkerPool(n_threads=1)
        pool.shutdown()
        assert pool.closed
        with pytest.raises(ConfigError):
            pool.submit(pow, 2, 2)
        pool.shutdown()  # idempotent

    def test_shared_pool_execution_matches_private(self):
        t = poisson_tensor((20, 24, 18), 1500, seed=7)
        rng = np.random.default_rng(8)
        factors = [rng.standard_normal((n, 6)) for n in t.shape]
        private = parallel_mttkrp(t, factors, 0, "splatt", n_threads=2)
        with WorkerPool(n_threads=2) as pool:
            ex = ParallelExecutor(n_threads=2, pool=pool)
            pplan = ex.prepare(t, 0, "splatt")
            shared = ex.execute(pplan, factors)
            # Many executions multiplex onto the one pool.
            again = ex.execute(pplan, factors)
            assert pool.n_submitted >= 2
        np.testing.assert_array_equal(shared, private)
        np.testing.assert_array_equal(again, private)

    def test_pool_requires_thread_backend(self):
        with WorkerPool(n_threads=1) as pool:
            with pytest.raises(ConfigError):
                ParallelExecutor(n_threads=1, backend="serial", pool=pool)

    def test_process_pool_takes_only_pinned_tasks(self):
        # Process workers are rank-bound (repro.dist): no round-robin.
        with WorkerPool(n_threads=1, backend="process") as pool:
            with pytest.raises(ConfigError, match="submit_pinned"):
                pool.submit(pow, 2, 2)
            # An executor would write into pickled copies of its output.
            with pytest.raises(ConfigError, match="pool 'process'"):
                ParallelExecutor(n_threads=1, pool=pool)
            assert pool.submit_pinned(0, pow, 2, 3).result(timeout=30) == 8
            assert pool.n_submitted == 1

    def test_pool_survives_executor(self):
        # The executor never shuts the shared pool down.
        pool = WorkerPool(n_threads=2)
        t = poisson_tensor((16, 14, 12), 600, seed=3)
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((n, 4)) for n in t.shape]
        ex = ParallelExecutor(n_threads=2, pool=pool)
        ex.execute(ex.prepare(t, 0, "splatt"), factors)
        del ex
        assert not pool.closed
        assert pool.submit(pow, 3, 2).result() == 9
        pool.shutdown()


class TestExecutorCancellation:
    def test_pre_cancelled_token_aborts_before_work(self):
        t = poisson_tensor((16, 14, 12), 600, seed=3)
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((n, 4)) for n in t.shape]
        ex = ParallelExecutor(n_threads=2)
        pplan = ex.prepare(t, 0, "splatt")
        token = CancellationToken()
        token.cancel()
        with pytest.raises(CancelledError):
            ex.execute(pplan, factors, cancel_token=token)

    def test_uncancelled_token_is_harmless(self):
        t = poisson_tensor((16, 14, 12), 600, seed=3)
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((n, 4)) for n in t.shape]
        ex = ParallelExecutor(n_threads=2)
        pplan = ex.prepare(t, 0, "splatt")
        token = CancellationToken()
        got = ex.execute(pplan, factors, cancel_token=token)
        want = parallel_mttkrp(t, factors, 0, "splatt", n_threads=1)
        np.testing.assert_array_equal(got, want)

    def test_serial_path_honors_token(self):
        t = poisson_tensor((16, 14, 12), 600, seed=3)
        rng = np.random.default_rng(4)
        factors = [rng.standard_normal((n, 4)) for n in t.shape]
        ex = ParallelExecutor(n_threads=1)
        pplan = ex.prepare(t, 0, "splatt")
        token = CancellationToken()
        token.cancel()
        with pytest.raises(CancelledError):
            ex.execute(pplan, factors, cancel_token=token)
