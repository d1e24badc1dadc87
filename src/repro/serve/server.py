"""The :mod:`repro.serve` server: admission, batching, execution, drain.

Architecture (three worlds, one job object):

* the **asyncio event loop** owns protocol I/O and admission — it
  parses frames, validates job specs, offers jobs to the
  :class:`~repro.serve.queue.AdmissionQueue`, and awaits each job's
  future to write the response;
* a **dispatcher thread** blocks on the queue, coalesces same-signature
  jobs into batches, and hands batches to a small runner pool;
* **runner threads** execute a batch body: build (or reuse) the tensor
  and its memoized per-mode signatures, consult the
  :class:`~repro.serve.warmcache.WarmConfigCache` through the tuner (a
  warm hit is a lookup plus a grid/strip soundness check), prepare one
  parallel plan, then execute every job's MTTKRP on the shared
  :class:`~repro.exec.WorkerPool` with per-job cancellation tokens and
  deadline timers.

The split keeps the event loop non-blocking (admission is O(1)), lets
batches overlap (``n_runners`` of them), and bounds every resource: the
queue (``queue_limit``), the warm cache (LRU + TTL), the tensor cache
(small LRU), and the worker pool (fixed size).

Graceful drain: stop admitting (``shutting_down`` rejections), let the
dispatcher empty the queue, join in-flight batches, then shut the pool
down.  Every admitted job's future resolves before drain returns — no
request is dropped on the floor.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from dataclasses import dataclass
from typing import Any

from repro.exec import ParallelExecutor, WorkerPool
from repro.machine import MachineSpec, power8, power8_socket
from repro.obs import LatencyHistogram, current_tracer
from repro.serve.job import Job, JobState
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    TUNABLE_KERNELS,
    JobSpec,
    ProtocolError,
    decode_frame,
    encode_frame,
    error_response,
    factors_for_spec,
    ok_response,
    result_sha256,
)
from repro.serve.queue import AdmissionQueue, QueueFullError
from repro.serve.warmcache import WarmConfigCache
from repro.util.errors import CancelledError, ConfigError, ServeError

__all__ = ["ServeConfig", "ServeServer", "ServeHandle", "start_in_thread"]

_MACHINES = {"power8": power8, "power8_socket": power8_socket}

#: The phases a completed job's latency splits into (``stats``'
#: ``phases_ms``): admission-queue wait plus the wait behind earlier jobs
#: of its batch, tensor lookup/build, tuning, plan preparation, and the
#: job's own execution.  They sum to the job's latency.
PHASES = ("queue", "tensor", "tune", "prepare", "execute")


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for one server instance (all bounded by construction)."""

    host: str = "127.0.0.1"
    #: TCP port (0 = ephemeral); ``None`` disables the socket listener
    #: entirely — in-process clients drive :meth:`ServeServer.handle`.
    port: "int | None" = 0
    #: Admission queue capacity.
    queue_limit: int = 64
    #: Threads in the shared MTTKRP worker pool.
    n_workers: int = 2
    #: Concurrently running batches.
    n_runners: int = 2
    #: Max jobs coalesced into one batch.
    max_batch: int = 8
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Deadline applied when a submit names none (None = unbounded).
    default_deadline_ms: "float | None" = None
    #: Warm config cache bounds.
    warm_entries: int = 128
    warm_ttl_s: "float | None" = None
    warm_admit_after: int = 1
    #: Built tensors kept resident (a tensor is shared by every job with
    #: an equal reference, so a handful covers a steady workload).
    tensor_cache_entries: int = 8
    #: Machine model used for tuning decisions.
    machine: str = "power8"

    def machine_spec(self) -> MachineSpec:
        try:
            return _MACHINES[self.machine]()
        except KeyError:
            raise ConfigError(
                f"unknown machine {self.machine!r}; known: {sorted(_MACHINES)}"
            )


def _ms(hist: LatencyHistogram) -> dict:
    return {k: (v * 1e3 if k != "count" else v) for k, v in hist.snapshot().items()}


class _Stats:
    """Thread-safe serve counters, the request latency histogram and one
    histogram per :data:`PHASES` entry."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: "dict[str, int]" = {}
        self.latency = LatencyHistogram()
        self.phases = {name: LatencyHistogram() for name in PHASES}

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + n
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count(f"serve.{name}", n)

    def get(self, name: str) -> int:
        with self._lock:
            return self._counts.get(name, 0)

    def snapshot(self) -> dict:
        with self._lock:
            counts = dict(self._counts)
        return {
            "counters": counts,
            "latency_ms": _ms(self.latency),
            "phases_ms": {name: _ms(h) for name, h in self.phases.items()},
        }


class ServeServer:
    """Asyncio MTTKRP service over the tuned parallel execution stack."""

    def __init__(self, config: "ServeConfig | None" = None) -> None:
        self.config = config or ServeConfig()
        cfg = self.config
        self.machine = cfg.machine_spec()
        self.queue = AdmissionQueue(cfg.queue_limit)
        self.warm = WarmConfigCache(
            max_entries=cfg.warm_entries,
            ttl_s=cfg.warm_ttl_s,
            admit_after=cfg.warm_admit_after,
        )
        self.pool = WorkerPool(cfg.n_workers, name="repro-serve-mttkrp")
        self.stats = _Stats()
        self._jobs: "dict[str, Job]" = {}
        self._jobs_lock = threading.Lock()
        #: Tensor-cache entries: the built tensor and its per-mode
        #: signatures, memoized so they are computed once and evicted
        #: with the tensor.
        self._tensors: "dict[str, tuple[Any, dict[int, Any]]]" = {}
        self._tensors_lock = threading.Lock()
        self._state = "idle"  # idle -> serving -> draining -> stopped
        self._state_lock = threading.Lock()
        self._dispatcher: "threading.Thread | None" = None
        self._runners: "list[threading.Thread]" = []
        self._batch_sem = threading.Semaphore(cfg.n_runners)
        self._inflight: "set[str]" = set()
        self._inflight_lock = threading.Lock()
        self._inflight_empty = threading.Event()
        self._inflight_empty.set()
        self._asyncio_server: "asyncio.base_events.Server | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        #: Recent mean batch service time, seeds retry-after hints.
        self._service_ema_s = 0.05

    # ------------------------------------------------------------------
    # lifecycle
    @property
    def state(self) -> str:
        return self._state

    @property
    def port(self) -> "int | None":
        if self._asyncio_server is None:
            return None
        socks = self._asyncio_server.sockets
        return socks[0].getsockname()[1] if socks else None

    async def start(self) -> None:
        """Start the dispatcher (and the socket listener unless
        ``config.port`` is None)."""
        with self._state_lock:
            if self._state != "idle":
                raise ServeError(f"cannot start a {self._state} server")
            self._state = "serving"
        self._loop = asyncio.get_running_loop()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()
        if self.config.port is not None:
            self._asyncio_server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
                limit=self.config.max_frame_bytes,
            )

    async def drain(self) -> dict:
        """Graceful shutdown: reject new work, finish admitted work."""
        with self._state_lock:
            already = self._state in ("draining", "stopped")
            if not already:
                self._state = "draining"
        if not already:
            if self._asyncio_server is not None:
                self._asyncio_server.close()
                await self._asyncio_server.wait_closed()
            self.queue.close()
        # Queue empties, then in-flight batches finish.
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_workers)
        with self._state_lock:
            self._state = "stopped"
        self.pool.shutdown(wait=True)
        return {
            "drained": True,
            "state": self._state,
            "completed": self.stats.get("completed"),
            "queue_depth": self.queue.depth,
            **self.stats_payload(),
        }

    def _join_workers(self) -> None:
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=60.0)
        self._inflight_empty.wait(timeout=60.0)

    # ------------------------------------------------------------------
    # request handling (shared by socket and in-process clients)
    async def handle(self, request: dict) -> dict:
        """Process one request object; always returns a response dict."""
        op = request.get("op")
        req_id = request.get("id")
        if op == "ping":
            return ok_response(req_id, "ping", state=self._state)
        if op == "stats":
            return ok_response(req_id, "stats", **self.stats_payload())
        if op == "submit":
            return await self._handle_submit(request)
        if op == "cancel":
            return self._handle_cancel(request)
        if op == "drain":
            report = await self.drain()
            return ok_response(req_id, "drain", **report)
        return error_response(
            req_id, str(op), "unknown_op", f"unknown op {op!r}"
        )

    async def _handle_submit(self, request: dict) -> dict:
        req_id = request.get("id")
        try:
            spec = JobSpec.from_payload(request.get("job"))
        except ProtocolError as exc:
            self.stats.count("rejected_invalid")
            return error_response(req_id, "submit", exc.code, str(exc))
        deadline_ms = request.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if deadline_ms <= 0:
                self.stats.count("rejected_invalid")
                return error_response(
                    req_id, "submit", "invalid_job",
                    f"deadline_ms must be > 0, got {deadline_ms}",
                )
        if self._state != "serving":
            return error_response(
                req_id, "submit", "shutting_down",
                f"server is {self._state}; not accepting jobs",
            )
        # The response ships at completion, so a client that wants to
        # cancel must be able to *name* the job up front.
        job_id = str(request.get("job_id") or uuid.uuid4().hex[:12])
        if len(job_id) > 64:
            self.stats.count("rejected_invalid")
            return error_response(
                req_id, "submit", "invalid_job", "job_id exceeds 64 chars"
            )
        with self._jobs_lock:
            clash = self._jobs.get(job_id)
            if clash is not None and not clash.state.terminal:
                self.stats.count("rejected_invalid")
                return error_response(
                    req_id, "submit", "invalid_job",
                    f"job_id {job_id!r} is already live",
                )
        job = Job(
            job_id=job_id,
            spec=spec,
            priority=int(request.get("priority", 0)),
            deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
        )
        retry_hint_ms = max(
            1.0,
            1e3
            * self._service_ema_s
            * (1 + self.queue.depth)
            / max(1, self.config.n_runners),
        )
        try:
            with self._jobs_lock:
                self._jobs[job.job_id] = job
                self._prune_jobs()
            self.queue.offer(job, retry_after_ms=retry_hint_ms)
        except QueueFullError as exc:
            with self._jobs_lock:
                self._jobs.pop(job.job_id, None)
            self.stats.count("rejected_full")
            return error_response(
                req_id, "submit", "queue_full", str(exc),
                retry_after_ms=exc.retry_after_ms,
            )
        except ServeError as exc:  # queue closed under us mid-drain
            with self._jobs_lock:
                self._jobs.pop(job.job_id, None)
            return error_response(req_id, "submit", "shutting_down", str(exc))
        self.stats.count("accepted")
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metric("serve.queue_depth", float(self.queue.depth))
        payload = await asyncio.wrap_future(job.future)
        payload = dict(payload)
        payload["id"] = req_id
        return payload

    def _handle_cancel(self, request: dict) -> dict:
        req_id = request.get("id")
        job_id = str(request.get("job_id", ""))
        with self._jobs_lock:
            job = self._jobs.get(job_id)
        if job is None:
            return error_response(
                req_id, "cancel", "invalid_job", f"unknown job_id {job_id!r}"
            )
        def on_queued_cancel() -> None:
            self.stats.count("cancelled")
            self._record_latency(job)

        accepted, observed = job.try_cancel(
            self._terminal_payload(job, JobState.CANCELLED, "cancelled",
                                   "cancelled while queued"),
            before_resolve=on_queued_cancel,
        )
        return ok_response(
            req_id, "cancel",
            job_id=job_id,
            accepted=accepted,
            observed_state=observed.value,
        )

    def _prune_jobs(self) -> None:
        # Called under _jobs_lock: keep the ledger bounded by dropping the
        # oldest *terminal* entries (live jobs must stay addressable).
        cap = 4 * self.config.queue_limit + 64
        if len(self._jobs) <= cap:
            return
        for jid in [
            j for j, job in self._jobs.items() if job.state.terminal
        ][: len(self._jobs) - cap]:
            del self._jobs[jid]

    # ------------------------------------------------------------------
    # stats
    def stats_payload(self) -> dict:
        return {
            "server_state": self._state,
            "queue": {
                "depth": self.queue.depth,
                "limit": self.queue.limit,
                "peak_depth": self.queue.peak_depth,
            },
            "warm_cache": self.warm.stats(),
            "pool": {
                "n_threads": self.pool.n_threads,
                "n_submitted": self.pool.n_submitted,
            },
            **self.stats.snapshot(),
        }

    # ------------------------------------------------------------------
    # dispatcher + runners
    def _dispatch_loop(self) -> None:
        while True:
            got = self.queue.take_batch(
                max_batch=self.config.max_batch, timeout=0.1
            )
            if got is None:
                if self.queue.closed and self.queue.depth == 0:
                    return
                continue
            batch, expired = got
            for job in expired:
                self._finish_expired(job)
            if not batch:
                continue
            # Bound batch concurrency without letting the dispatcher
            # block the queue while every runner is busy.
            self._batch_sem.acquire()
            with self._inflight_lock:
                self._inflight.add(batch[0].job_id)
                self._inflight_empty.clear()
            runner = threading.Thread(
                target=self._run_batch_entry,
                args=(batch,),
                name="repro-serve-runner",
                daemon=True,
            )
            self._runners.append(runner)
            runner.start()
            self._runners = [t for t in self._runners if t.is_alive()]

    def _run_batch_entry(self, batch: "list[Job]") -> None:
        try:
            self._run_batch(batch)
        finally:
            with self._inflight_lock:
                self._inflight.discard(batch[0].job_id)
                if not self._inflight:
                    self._inflight_empty.set()
            self._batch_sem.release()

    # -- batch body (runner thread) ------------------------------------
    def _run_batch(self, batch: "list[Job]") -> None:
        lead = batch[0].spec
        t_begin = time.monotonic()
        self.stats.count("batches")
        tracer = current_tracer()
        try:
            tensor, signatures = self._tensor_for(lead)
        except Exception as exc:
            for job in batch:
                self._finish_error(
                    job, "invalid_job", f"tensor build failed: {exc}"
                )
            return
        t_built = t_tuned = time.monotonic()
        try:
            params = dict(lead.params)
            tuned_meta: "dict[str, Any] | None" = None
            if lead.tune:
                from repro.tune import TensorSignature, Tuner

                signature = signatures.get(lead.mode)
                if signature is None:
                    signature = signatures.setdefault(
                        lead.mode, TensorSignature.of(tensor, lead.mode)
                    )
                tuner = Tuner(
                    tensor, lead.mode, self.machine, cache=self.warm,
                    signature=signature,
                )
                cfg = tuner.get_or_tune(lead.rank)
                self.stats.count("warm_hits" if cfg.from_cache else "warm_misses")
                accepted = TUNABLE_KERNELS[lead.kernel]
                if "block_counts" in accepted:
                    # A tuned "no blocking" verdict maps to the identity
                    # grid — the mb-family kernels always need counts.
                    params.setdefault(
                        "block_counts",
                        tuple(cfg.block_counts)
                        if cfg.block_counts is not None
                        else (1,) * tensor.order,
                    )
                if "rank_blocking" in accepted and cfg.rank_blocking is not None:
                    params.setdefault("rank_blocking", cfg.rank_blocking)
                tuned_meta = {
                    "from_cache": cfg.from_cache,
                    "strategy": cfg.strategy,
                    "block_counts": (
                        None
                        if cfg.block_counts is None
                        else list(cfg.block_counts)
                    ),
                }
                t_tuned = time.monotonic()
            executor = ParallelExecutor(
                n_threads=self.config.n_workers,
                backend="thread",
                pool=self.pool,
            )
            pplan = executor.prepare(tensor, lead.mode, lead.kernel, **params)
        except Exception as exc:
            for job in batch:
                self._finish_error(
                    job, "invalid_job", f"plan preparation failed: {exc}"
                )
            return
        marks = (t_begin, t_built, t_tuned, time.monotonic())
        applied = {
            k: (list(v) if isinstance(v, tuple) else getattr(v, "block_cols", v))
            for k, v in params.items()
        }
        for job in batch:
            self._run_job(job, tensor, executor, pplan, applied, tuned_meta,
                          len(batch), marks)
        dur = time.monotonic() - t_begin
        per_job = dur / max(1, len(batch))
        self._service_ema_s = 0.8 * self._service_ema_s + 0.2 * per_job
        if tracer.enabled:
            tracer.metric("serve.batch_s", dur)

    def _run_job(
        self,
        job: Job,
        tensor,
        executor: ParallelExecutor,
        pplan,
        applied: dict,
        tuned_meta: "dict | None",
        batch_size: int,
        marks: "tuple[float, float, float, float]",
    ) -> None:
        """Run one job of a batch.  ``marks`` are the batch's monotonic
        begin/built/tuned/prepared instants, from which the completed
        job's :data:`PHASES` are recorded."""
        if job.expired():
            self._finish_expired(job)
            return
        if not job.try_start():
            return  # cancelled while queued; its future already fired
        if job.token.cancelled and not job.deadline_tripped:
            # Cancel arrived between pickup and start: resolve as
            # cancelled without paying for the execution.
            self._finish_terminal(
                job, JobState.CANCELLED, "cancelled",
                "cancelled before execution started",
            )
            return
        spec = job.spec
        timer: "threading.Timer | None" = None
        remaining = job.deadline_remaining()
        if remaining is not None:
            timer = threading.Timer(max(0.0, remaining), job.trip_deadline)
            timer.daemon = True
            timer.start()
        t0 = time.monotonic()
        try:
            factors = factors_for_spec(
                tensor.shape, spec.rank, spec.factors_seed, spec.tensor.dtype
            )
            result = executor.execute(pplan, factors, cancel_token=job.token)
        except CancelledError:
            if job.deadline_tripped:
                self._finish_expired(job)
            else:
                self._finish_terminal(
                    job, JobState.CANCELLED, "cancelled",
                    "cancelled during execution",
                )
            return
        except Exception as exc:
            self._finish_error(job, "internal", f"execution failed: {exc}")
            return
        finally:
            if timer is not None:
                timer.cancel()
        exec_s = time.monotonic() - t0
        payload = ok_response(
            None, "submit",
            job_id=job.job_id,
            state=JobState.COMPLETED.value,
            sha256=result_sha256(result),
            shape=list(result.shape),
            dtype=str(result.dtype),
            kernel=spec.kernel,
            applied_params=applied,
            tuned=tuned_meta,
            batch_size=batch_size,
            queue_ms=job.queue_wait_s() * 1e3,
            exec_ms=exec_s * 1e3,
        )
        def on_completed() -> None:
            self.stats.count("completed")
            self._record_latency(job)
            self._record_phases(job, marks)

        # Counting runs before the future resolves, so a client holding
        # the response always sees its own job in the stats.
        job.try_finish(JobState.COMPLETED, payload, before_resolve=on_completed)

    # -- terminal helpers ----------------------------------------------
    def _terminal_payload(
        self, job: Job, state: JobState, code: str, message: str
    ) -> dict:
        resp = error_response(
            None, "submit", code, message, job_id=job.job_id, state=state.value
        )
        return resp

    def _finish_terminal(
        self, job: Job, state: JobState, code: str, message: str
    ) -> None:
        def on_terminal() -> None:
            self.stats.count(
                "deadline_expired" if state is JobState.EXPIRED else
                "cancelled" if state is JobState.CANCELLED else "failed"
            )
            self._record_latency(job)

        job.try_finish(
            state,
            self._terminal_payload(job, state, code, message),
            before_resolve=on_terminal,
        )

    def _finish_expired(self, job: Job) -> None:
        self._finish_terminal(
            job, JobState.EXPIRED, "deadline_expired",
            "deadline expired before completion",
        )

    def _finish_error(self, job: Job, code: str, message: str) -> None:
        job.try_start()  # mark RUNNING so the transition below is legal
        self._finish_terminal(job, JobState.FAILED, code, message)

    def _record_latency(self, job: Job) -> None:
        lat = job.total_latency_s()
        self.stats.latency.record(lat)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metric("serve.request_s", lat)

    def _record_phases(
        self, job: Job, marks: "tuple[float, float, float, float]"
    ) -> None:
        # Runs inside try_finish, so started_at and finished_at are set.
        begin, built, tuned, prepared = marks
        spans = (
            (begin - job.enqueued_at) + (job.started_at - prepared),
            built - begin,
            tuned - built,
            prepared - tuned,
            job.finished_at - job.started_at,
        )
        for name, dur in zip(PHASES, spans):
            self.stats.phases[name].record(dur)

    # -- tensor cache ---------------------------------------------------
    def _tensor_for(self, spec: JobSpec):
        """The built tensor for ``spec`` and its ``{mode: signature}`` memo
        (filled by the batch runner)."""
        key = spec.tensor.key()
        with self._tensors_lock:
            hit = self._tensors.get(key)
            if hit is not None:
                del self._tensors[key]
                self._tensors[key] = hit  # refresh LRU recency
                return hit
        built = (spec.tensor.build(), {})
        with self._tensors_lock:
            self._tensors[key] = built
            while len(self._tensors) > self.config.tensor_cache_entries:
                del self._tensors[next(iter(self._tensors))]
        return built

    # ------------------------------------------------------------------
    # socket protocol
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: "set[asyncio.Task]" = set()

        async def respond(resp: dict) -> None:
            async with write_lock:
                writer.write(encode_frame(resp))
                await writer.drain()

        async def handle_frame(line: bytes) -> None:
            try:
                request = decode_frame(line)
            except ProtocolError as exc:
                await respond(
                    error_response(None, "?", exc.code, str(exc))
                )
                return
            await respond(await self.handle(request))

        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await respond(
                        error_response(
                            None, "?", "oversized",
                            f"frame exceeds {self.config.max_frame_bytes} "
                            "bytes; closing connection",
                        )
                    )
                    # Discard whatever of the oversized frame is still in
                    # flight before closing: closing with unread received
                    # data RSTs the connection, which can destroy the
                    # error response before the client reads it.
                    async def discard() -> None:
                        while await reader.read(65536):
                            pass

                    try:
                        await asyncio.wait_for(discard(), timeout=1.0)
                    except (asyncio.TimeoutError, ConnectionError, OSError):
                        pass
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.ensure_future(handle_frame(line))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# ----------------------------------------------------------------------
# background-thread harness (tests, benchmarks, in-process clients)
class ServeHandle:
    """A server running on its own event loop in a daemon thread.

    Synchronous code (pytest, the load generator, the CLI) talks to the
    server by scheduling coroutines onto that loop.
    """

    def __init__(self, server: ServeServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> "int | None":
        return self.server.port

    def call(self, coro, timeout: "float | None" = 120.0):
        """Run a coroutine on the server loop and wait for its result."""
        fut = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return fut.result(timeout=timeout)

    def request(self, payload: dict, timeout: "float | None" = 120.0) -> dict:
        return self.call(self.server.handle(payload), timeout=timeout)

    def drain_and_stop(self, timeout: float = 120.0) -> dict:
        report = self.call(self.server.drain(), timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        return report


def start_in_thread(config: "ServeConfig | None" = None) -> ServeHandle:
    """Start a :class:`ServeServer` on a fresh loop in a daemon thread."""
    server = ServeServer(config)
    started = threading.Event()
    box: "dict[str, Any]" = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        box["loop"] = loop
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # surface bind errors to the caller
            box["error"] = exc
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-serve-loop", daemon=True
    )
    thread.start()
    started.wait(timeout=30.0)
    if "error" in box:
        raise box["error"]
    if "loop" not in box:
        raise ServeError("server loop failed to start within 30s")
    return ServeHandle(server, box["loop"], thread)
