"""Shared worker-pool handle and cooperative cancellation for repro.exec.

``ParallelExecutor`` historically created a fresh thread pool per
``execute`` call — fine for a benchmark loop, wasteful for a service
issuing thousands of small MTTKRPs: thread spawn/join overhead is paid
per request and the OS never reuses warm stacks.  :class:`WorkerPool`
is a long-lived handle over one ``ThreadPoolExecutor`` that many
executors (and many concurrent requests) multiplex onto; the pool
outlives any single execution and is shut down exactly once by its
owner (the server's drain path, or the ``with`` block in tests).

``backend="process"`` swaps the thread pool for persistent OS
processes, one per worker, each fed by its own task queue.  That buys
two things threads cannot provide: real address-space isolation (the
distributed layer's point — a rank only sees data that crossed a
collective) and **pinned submission**: :meth:`WorkerPool.submit_pinned`
routes a task to a specific worker, so `repro.dist` can bind worker
``r`` to cluster rank ``r`` for the pool's lifetime and the worker's
cached segment mappings and tensor blocks stay valid across calls.

:class:`CancellationToken` adds cooperative cancellation at task
granularity: kernels are uninterruptible once launched (NumPy releases
the GIL inside opaque chunks), so the token is checked when a worker
*picks up* a task and between per-mode launches — the useful points for
a serving deadline, where the expensive part is the queue of tasks not
yet started.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable

from repro.util.errors import CancelledError, ConfigError

__all__ = ["CancellationToken", "WorkerPool"]

_STOP = None


class CancellationToken:
    """A thread-safe cancellation flag shared between a requester and the
    workers running on its behalf.

    ``cancel()`` is idempotent and returns whether this call flipped the
    flag — the primitive a server needs to resolve a cancellation racing
    completion: whichever side transitions the job state first wins, and
    the token only communicates the request to not-yet-started work.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> bool:
        """Request cancellation; True when this call was the first."""
        if self._event.is_set():
            return False
        self._event.set()
        return True

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def raise_if_cancelled(self, what: str = "execution") -> None:
        """Raise :class:`~repro.util.errors.CancelledError` when set."""
        if self._event.is_set():
            raise CancelledError(f"{what} cancelled before completion")


def _process_worker_main(
    index: int, task_q: "mp.SimpleQueue", result_q: "mp.SimpleQueue"
) -> None:
    """Loop of one pinned process worker: run tasks from my queue until
    the ``None`` sentinel.  Results (or exceptions) go back tagged with
    the task id; an unpicklable payload is downgraded to a descriptive
    ``RuntimeError`` rather than killing the worker."""
    while True:
        item = task_q.get()
        if item is _STOP:
            break
        task_id, fn, args, kwargs = item
        try:
            out: tuple[int, bool, Any] = (task_id, True, fn(*args, **kwargs))
        except BaseException as exc:  # noqa: BLE001 — delivered to the future
            out = (task_id, False, exc)
        try:
            pickle.dumps(out[2])
        except Exception:
            kind = "result" if out[1] else "error"
            out = (
                task_id,
                False,
                RuntimeError(
                    f"worker {index} produced an unpicklable {kind}: {out[2]!r}"
                ),
            )
        result_q.put(out)


class WorkerPool:
    """A shared, long-lived worker pool for parallel MTTKRP execution.

    >>> pool = WorkerPool(n_threads=4)
    >>> executor = ParallelExecutor(n_threads=4, pool=pool)  # doctest: +SKIP
    >>> ...many executions...                                # doctest: +SKIP
    >>> pool.shutdown()

    The pool never shuts down implicitly inside an execution; sizing is
    fixed at construction so admission control upstream (the serve
    queue) — not silent pool growth — is what absorbs load spikes.

    With ``backend="process"`` each worker is a persistent OS process
    with its own task queue, and tasks go through :meth:`submit_pinned`,
    which targets one of them by index.  Everything crossing a process
    boundary must be picklable.
    """

    def __init__(
        self,
        n_threads: int = 2,
        *,
        name: str = "repro-exec",
        backend: str = "thread",
    ) -> None:
        n_threads = int(n_threads)
        if n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
        if backend not in ("thread", "process"):
            raise ConfigError(f"backend must be 'thread' or 'process', got {backend!r}")
        self.n_threads = n_threads
        self.backend = backend
        self._lock = threading.Lock()
        self._closed = False
        #: Tasks handed to the pool since construction.
        self.n_submitted: int = 0
        if backend == "thread":
            self._pool = ThreadPoolExecutor(
                max_workers=n_threads, thread_name_prefix=name
            )
            return
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        # Start the resource tracker *before* forking: forked workers then
        # inherit the parent's tracker and their SharedMemory attachments
        # register idempotently against it.  A worker forked without a
        # running tracker spawns its own, which at worker exit "cleans up"
        # segments the parent still owns (or warns on ones already gone).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except Exception:  # pragma: no cover - private API hedge
            pass
        self._result_q = ctx.SimpleQueue()
        self._task_qs = [ctx.SimpleQueue() for _ in range(n_threads)]
        self._procs = [
            ctx.Process(
                target=_process_worker_main,
                args=(i, self._task_qs[i], self._result_q),
                name=f"{name}-{i}",
                daemon=True,
            )
            for i in range(n_threads)
        ]
        for p in self._procs:
            p.start()
        self._futures: "dict[int, Future]" = {}
        self._next_id = 0
        # Dispatcher after the forks: workers must not inherit it.
        self._dispatcher = threading.Thread(
            target=self._drain_results, name=f"{name}-results", daemon=True
        )
        self._dispatcher.start()

    @property
    def n_workers(self) -> int:
        """Worker count (alias of ``n_threads``, which predates the
        process backend)."""
        return self.n_threads

    # ------------------------------------------------------------------
    def _drain_results(self) -> None:
        while True:
            item = self._result_q.get()
            if item is _STOP:
                return
            task_id, ok, payload = item
            with self._lock:
                fut = self._futures.pop(task_id, None)
            if fut is None:
                continue
            if ok:
                fut.set_result(payload)
            else:
                fut.set_exception(payload)

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Submit one task to the thread pool; raises ``ConfigError``
        after shutdown.  Process workers are rank-bound: they only take
        tasks through :meth:`submit_pinned`."""
        if self.backend != "thread":
            raise ConfigError(
                "a process WorkerPool routes tasks to a chosen worker; "
                "use submit_pinned(index, fn, ...)"
            )
        with self._lock:
            if self._closed:
                raise ConfigError("WorkerPool is shut down")
            self.n_submitted += 1
        return self._pool.submit(fn, *args, **kwargs)

    def submit_pinned(
        self, index: int, fn: Callable[..., Any], /, *args: Any, **kwargs: Any
    ) -> Future:
        """Submit one task to a *specific* worker (process backend only):
        the routing guarantee ``repro.dist`` builds rank affinity on."""
        if self.backend != "process":
            raise ConfigError("submit_pinned requires backend='process'")
        if not 0 <= index < self.n_threads:
            raise ConfigError(f"worker index {index} out of range")
        fut: Future = Future()
        with self._lock:
            if self._closed:
                raise ConfigError("WorkerPool is shut down")
            task_id = self._next_id
            self._next_id += 1
            self._futures[task_id] = fut
            self.n_submitted += 1
        fut.set_running_or_notify_cancel()
        try:
            self._task_qs[index].put((task_id, fn, args, kwargs))
        except BaseException:
            with self._lock:
                self._futures.pop(task_id, None)
            raise
        return fut

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self, *, wait: bool = True) -> None:
        """Shut the pool down (idempotent); with ``wait`` the call blocks
        until in-flight tasks finish — the drain contract."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self.backend == "thread":
            self._pool.shutdown(wait=wait)
            return
        for q in self._task_qs:
            q.put(_STOP)
        if wait:
            for p in self._procs:
                p.join(timeout=10.0)
        for p in self._procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        # Workers flushed their results before exiting; the sentinel
        # queued after the joins stops the dispatcher once it drained.
        self._result_q.put(_STOP)
        self._dispatcher.join(timeout=10.0)
        with self._lock:
            leftovers = list(self._futures.values())
            self._futures.clear()
        for fut in leftovers:
            if not fut.done():
                fut.set_exception(ConfigError("WorkerPool shut down mid-task"))

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"<WorkerPool {self.n_threads} {self.backend} worker(s), {state}>"
        )
