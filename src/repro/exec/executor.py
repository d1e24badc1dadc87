"""Shared-memory parallel MTTKRP execution.

The model side of this repo (:mod:`repro.perf.parallel`) predicts what a
slice-parallel MTTKRP *would* cost; this module actually runs one.  The
scheme is SPLATT's OpenMP parallelization (also the CPU baseline of
Dynasor-style multi-core MTTKRP work): each worker owns a contiguous
range of *output slices*, so every output row has exactly one writer and
no atomics are needed — provided the ranges tile the output mode.  That
proviso is not assumed: :func:`repro.perf.parallel.partition_rows` proves
every partition with the plan verifier's tiling check (PL401/PL402)
before launch, and a gapped or overlapping partition raises
:class:`~repro.util.errors.ScheduleError` — the same gate the time model
goes through.

Execution model
---------------
:meth:`ParallelExecutor.prepare` partitions the output mode with the
nnz-balanced greedy slice partition (:func:`repro.perf.parallel
.partition_rows`), re-bases each worker's nonzeros to local output
coordinates, and prepares one per-worker sub-plan with the requested
kernel.  :meth:`ParallelExecutor.execute` then runs the sub-plans
concurrently, each writing into a disjoint row-range *view* of one
shared output buffer — the preparation cost is amortized over the many
MTTKRP calls of a CP-ALS run, exactly as with the serial kernels.

Backends
--------
``thread``
    A thread :class:`~repro.exec.pool.WorkerPool`.  The GIL is
    released inside the compiled CSR products (scipy's ``csr_matvecs``,
    called by :func:`repro.kernels.base.fiber_sums` and
    :func:`repro.kernels.base.segment_sums_into`) that run lines 5-9 of
    Algorithm 1 for the SPLATT and CSF kernels and the COO kernel's row
    sums, and inside NumPy's large gathers (line 8's ``C[k]``, the COO
    kernel's ``B[j]`` and ``C[k]``), so threads overlap the heavy lifting
    even though the orchestration is Python.  The default.
``serial``
    Runs the same vetted schedule inline on the calling thread.  The
    determinism baseline (and the CI fallback on constrained runners).

Per-worker wall-clock is recorded for every execution
(:attr:`ParallelExecutor.last_report`), making load imbalance — the
quantity the model's makespan/imbalance estimate predicts — directly
observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.blocking.grid import clamp_block_counts
from repro.kernels.base import (
    Kernel,
    Plan,
    alloc_output,
    check_factors,
    factor_dtype,
    get_kernel,
)
from repro.exec.pool import CancellationToken, WorkerPool
from repro.obs.tracer import current_tracer
from repro.perf.parallel import partition_rows
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError
from repro.util.validation import check_mode

#: Execution backends: the worker pool, and the same schedule inline.
BACKENDS = ("thread", "serial")


@dataclass(frozen=True)
class ThreadTask:
    """One worker's share of a parallel schedule."""

    #: Worker index (position in the schedule).
    index: int
    #: Global output-row range ``[start, stop)`` this worker owns.
    start: int
    stop: int
    #: Nonzeros in the worker's sub-tensor.
    nnz: int
    #: Prepared sub-plan over the re-based sub-tensor; ``None`` when the
    #: range holds no nonzeros (the worker only zero-fills its rows).
    plan: "Plan | None"


@dataclass(frozen=True)
class ParallelPlan:
    """A vetted parallel schedule: per-worker sub-plans plus their
    disjoint output row ranges."""

    kernel_name: str
    shape: tuple[int, ...]
    mode: int
    tasks: tuple[ThreadTask, ...]

    @property
    def n_threads(self) -> int:
        return len(self.tasks)

    @property
    def ranges(self) -> tuple[tuple[int, int], ...]:
        return tuple((t.start, t.stop) for t in self.tasks)

    @property
    def nnz(self) -> int:
        return sum(t.nnz for t in self.tasks)

    def describe(self) -> str:
        return (
            f"parallel {self.kernel_name} plan: mode={self.mode}, "
            f"{self.n_threads} worker(s), nnz={self.nnz}, "
            f"ranges={list(self.ranges)}"
        )


@dataclass(frozen=True)
class ExecutionReport:
    """Observed per-worker wall-clock of one parallel execution."""

    backend: str
    thread_times_s: tuple[float, ...]
    thread_nnz: tuple[int, ...]

    @property
    def makespan_s(self) -> float:
        """Slowest worker's wall-clock (completion time)."""
        return max(self.thread_times_s) if self.thread_times_s else 0.0

    @property
    def imbalance(self) -> float:
        """max/mean worker time (1.0 = perfectly balanced) — the measured
        counterpart of :attr:`repro.perf.parallel.ParallelTimeEstimate
        .imbalance`."""
        if not self.thread_times_s:
            return 1.0
        mean = sum(self.thread_times_s) / len(self.thread_times_s)
        return self.makespan_s / mean if mean > 0 else 1.0


def _extract_rows(
    tensor: COOTensor, mode: int, lo: int, hi: int
) -> COOTensor:
    """The sub-tensor of rows ``[lo, hi)`` along ``mode``, re-based so the
    output mode starts at zero (other modes keep global coordinates, so
    workers share the full B/C factor matrices)."""
    rows = tensor.indices[:, mode]
    pos = np.flatnonzero((rows >= lo) & (rows < hi))
    indices = tensor.indices.take(pos, axis=0)
    indices[:, mode] -= lo
    shape = tuple(
        (hi - lo) if m == mode else s for m, s in enumerate(tensor.shape)
    )
    return COOTensor(shape, indices, tensor.values.take(pos), validate=False)


def _run_task(
    kernel: Kernel,
    task: ThreadTask,
    factors: Sequence[np.ndarray],
    view: np.ndarray,
    cancel_token: "CancellationToken | None" = None,
) -> float:
    """Execute one worker's sub-plan into its output view; returns the
    worker's wall-clock seconds.

    ``cancel_token`` is checked when the worker picks the task up — a
    cancelled execution raises :class:`~repro.util.errors.CancelledError`
    instead of starting the kernel (launched kernels run to completion;
    see :mod:`repro.exec.pool`).

    When a tracer is active the worker's interval is recorded as an
    ``exec.worker`` span on the executing thread, so measured per-worker
    imbalance (:class:`ExecutionReport`) shows up on the trace timeline.
    """
    if cancel_token is not None:
        cancel_token.raise_if_cancelled("parallel MTTKRP task")
    tracer = current_tracer()
    if not tracer.enabled:
        t0 = time.perf_counter()
        if task.plan is not None:
            kernel.execute(task.plan, factors, out=view)
        return time.perf_counter() - t0
    with tracer.span(
        "exec.worker",
        worker=task.index,
        rows=[task.start, task.stop],
        nnz=task.nnz,
    ) as sp:
        t0 = time.perf_counter()
        if task.plan is not None:
            kernel.execute(task.plan, factors, out=view)
        elapsed = time.perf_counter() - t0
        sp.meta["wall_s"] = elapsed
    return elapsed


class ParallelExecutor:
    """Shared-memory parallel executor for any registered kernel.

    >>> executor = ParallelExecutor(n_threads=4)
    >>> pplan = executor.prepare(tensor, mode=0, kernel="splatt")
    >>> A = executor.execute(pplan, factors)          # doctest: +SKIP

    ``prepare`` once, ``execute`` per CP-ALS iteration; the vetted
    schedule and the per-worker sub-plans are reused.  After each
    execution :attr:`last_report` holds the observed per-worker times.
    """

    def __init__(
        self,
        n_threads: int = 2,
        backend: str = "thread",
        *,
        pool: "WorkerPool | None" = None,
    ) -> None:
        n_threads = int(n_threads)
        if n_threads < 1:
            raise ConfigError(f"n_threads must be >= 1, got {n_threads}")
        if backend not in BACKENDS:
            raise ConfigError(
                f"unknown backend {backend!r}; available: {BACKENDS}"
            )
        if pool is not None and (backend, pool.backend) != ("thread", "thread"):
            raise ConfigError(
                "a shared WorkerPool requires the thread backend, got "
                f"executor {backend!r}, pool {pool.backend!r}"
            )
        self.n_threads = n_threads
        self.backend = backend
        #: Optional long-lived pool shared across executors (repro.serve);
        #: when set, :meth:`execute` submits tasks here instead of
        #: spinning up a fresh ThreadPoolExecutor per call, and never
        #: shuts it down — lifecycle belongs to the pool's owner.
        self.pool = pool
        #: Per-worker wall-clock of the most recent :meth:`execute`.
        self.last_report: "ExecutionReport | None" = None
        # Lazily-created thread pool this executor owns (and must shut
        # down).  Reused across execute() calls so a CP-ALS run pays
        # worker startup once, not once per MTTKRP.
        self._owned_pool: "WorkerPool | None" = None

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None:
        """Shut down the pool this executor created.  Idempotent; a
        shared ``pool=`` passed at construction is left running (its
        lifecycle belongs to the caller).  Closed executors can still
        execute — the owned pool is simply re-created on demand."""
        if self._owned_pool is not None:
            self._owned_pool.shutdown(wait=True)
            self._owned_pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _thread_pool(self) -> WorkerPool:
        """The pool thread-backend executions run on: the shared pool if
        one was injected, else an owned pool created on first use."""
        if self.pool is not None:
            return self.pool
        if self._owned_pool is None or self._owned_pool.closed:
            self._owned_pool = WorkerPool(
                n_threads=self.n_threads, name="repro-exec-owned"
            )
        return self._owned_pool

    # -- schedule construction ----------------------------------------
    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        kernel: "str | Kernel" = "splatt",
        **params: object,
    ) -> ParallelPlan:
        """Partition, vet, and prepare a parallel schedule.

        The output mode is split by the greedy nnz-balanced slice
        partition, whose per-worker row ranges are proved to tile the
        mode (:class:`~repro.util.errors.ScheduleError` otherwise)
        before any sub-plan is built.  ``params`` go to the
        kernel's ``prepare`` for every sub-tensor, with ``block_counts``
        clamped to each
        sub-tensor's extents first (a :class:`~repro.blocking.grid.BlockGrid`
        rejects a count larger than its mode).

        When a tracer is active the call is recorded as one
        ``exec.prepare`` span.
        """
        tracer = current_tracer()
        if not tracer.enabled:
            return self._prepare(tensor, mode, kernel, params)
        name = kernel if isinstance(kernel, str) else kernel.name
        with tracer.span("exec.prepare", kernel=name, nnz=tensor.nnz) as sp:
            pplan = self._prepare(tensor, mode, kernel, params)
            sp.meta.update(mode=pplan.mode, n_tasks=len(pplan.tasks))
        return pplan

    def _prepare(
        self, tensor: COOTensor, mode: int, kernel: "str | Kernel",
        params: dict[str, object],
    ) -> ParallelPlan:
        kern = get_kernel(kernel) if isinstance(kernel, str) else kernel
        mode = check_mode(mode, tensor.order)
        # The launch gate: per-worker output rows tile the mode, or no launch.
        ranges = partition_rows(tensor, mode, self.n_threads)

        base_params = dict(params)
        if kern.name == "csf-any" and "mode_order" not in base_params:
            # csf-any's default tree layout sorts *all* modes by length,
            # which would differ per sub-tensor (the output extent
            # shrinks).  Pin the full tensor's default so every worker
            # and the serial reference reduce in the same order —
            # bitwise-reproducible results across thread counts.
            base_params["mode_order"] = tuple(
                sorted(range(tensor.order), key=lambda m: tensor.shape[m])
            )

        tasks: list[ThreadTask] = []
        for idx, (lo, hi) in enumerate(ranges):
            sub = _extract_rows(tensor, mode, lo, hi)
            sub_params = dict(base_params)
            if "block_counts" in sub_params:
                # A worker's row range can be thinner than the grid.
                sub_params["block_counts"] = clamp_block_counts(
                    sub_params["block_counts"], sub.shape  # type: ignore[arg-type]
                )
            plan = (
                kern.prepare(sub, mode, **sub_params) if sub.nnz > 0 else None
            )
            tasks.append(
                ThreadTask(index=idx, start=lo, stop=hi, nnz=sub.nnz, plan=plan)
            )
        return ParallelPlan(
            kernel_name=kern.name,
            shape=tensor.shape,
            mode=mode,
            tasks=tuple(tasks),
        )

    # -- execution ----------------------------------------------------
    def execute(
        self,
        plan: ParallelPlan,
        factors: Sequence[np.ndarray],
        out: "np.ndarray | None" = None,
        *,
        cancel_token: "CancellationToken | None" = None,
    ) -> np.ndarray:
        """Run the schedule; returns the ``(I_mode, R)`` result in the
        factors' dtype.  Workers write disjoint row ranges of the one
        output buffer, so the result is identical to serial execution
        (same sub-plans, same per-range reduction order).

        ``cancel_token`` is checked before the
        launch and at each task pickup; a cancelled execution raises
        :class:`~repro.util.errors.CancelledError` and the partially
        written output buffer must be discarded by the caller.
        """
        if cancel_token is not None:
            cancel_token.raise_if_cancelled("parallel MTTKRP execution")
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        A = alloc_output(
            out, int(plan.shape[plan.mode]), rank, factor_dtype(factors)
        )
        kern = get_kernel(plan.kernel_name)
        tracer = current_tracer()
        with tracer.span(
            "exec.parallel",
            backend=self.backend,
            kernel=plan.kernel_name,
            mode=int(plan.mode),
            n_workers=len(plan.tasks),
        ):
            if self.backend == "thread" and len(plan.tasks) > 1:
                times = self._execute_threads(
                    plan, kern, factors, A, cancel_token
                )
            else:
                times = [
                    _run_task(
                        kern,
                        task,
                        factors,
                        A[task.start : task.stop],
                        cancel_token,
                    )
                    for task in plan.tasks
                ]
        if tracer.enabled:
            tracer.count("exec.launches", 1)
            tracer.count("exec.workers", len(plan.tasks))
        self.last_report = ExecutionReport(
            backend=self.backend,
            thread_times_s=tuple(times),
            thread_nnz=tuple(t.nnz for t in plan.tasks),
        )
        return A

    def _execute_threads(
        self,
        plan: ParallelPlan,
        kern: Kernel,
        factors: Sequence[np.ndarray],
        A: np.ndarray,
        cancel_token: "CancellationToken | None" = None,
    ) -> list[float]:
        pool = self._thread_pool()
        futures = [
            pool.submit(
                _run_task,
                kern,
                task,
                factors,
                A[task.start : task.stop],
                cancel_token,
            )
            for task in plan.tasks
        ]
        return [f.result() for f in futures]


def parallel_mttkrp(
    tensor: COOTensor,
    factors: Sequence[np.ndarray],
    mode: int,
    kernel: "str | Kernel" = "splatt",
    *,
    n_threads: int = 2,
    out: "np.ndarray | None" = None,
    **params: object,
) -> np.ndarray:
    """One-shot convenience: prepare a parallel schedule and execute it.
    The executor (and any workers it spins up) is torn down before
    returning."""
    with ParallelExecutor(n_threads=n_threads) as executor:
        pplan = executor.prepare(tensor, mode, kernel, **params)
        return executor.execute(pplan, factors, out=out)
