"""CP-ALS: alternating least squares for the canonical polyadic
decomposition of a sparse tensor.

Each outer iteration updates every mode in turn::

    M   = MTTKRP(X, factors, n)                  # the bottleneck kernel
    F_n, lambda = ALS update of mode n from M    # repro.cpd.core

The MTTKRP is delegated to any registered kernel; one plan per mode is
prepared up front and reused across all iterations — exactly the
amortization the paper invokes for the blocking reorganization cost
(Sections III-B, V-A).  The update step, the fit, and the convergence
check are the shared core in :mod:`repro.cpd.core`.

With ``n_threads > 1`` each per-mode MTTKRP runs through
:class:`repro.exec.ParallelExecutor` (bitwise-equal to serial), and a
traced run records per-worker spans under each mode's MTTKRP.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cpd.core import ALSResult, ALSState
from repro.kernels.base import Kernel, Plan, get_kernel
from repro.obs.tracer import current_tracer
from repro.tensor.coo import COOTensor
from repro.util.validation import require


def cp_als(
    tensor: COOTensor,
    rank: int,
    *,
    n_iters: int = 50,
    tol: float = 1e-5,
    kernel: "str | Kernel" = "splatt",
    kernel_params: "dict | None" = None,
    init: "str | Sequence[np.ndarray]" = "random",
    seed: "int | None | np.random.Generator" = 0,
    n_threads: int = 1,
) -> ALSResult:
    """Compute a rank-``rank`` CP decomposition of a sparse tensor.

    Parameters
    ----------
    tensor: the (3-mode, unless using the ``csf`` kernel) sparse tensor.
    rank: decomposition rank ``R``.
    n_iters: maximum outer iterations.
    tol: stop when the fit improves by less than this between iterations.
    kernel: MTTKRP strategy name (``splatt``, ``coo``, ``csf``, ``mb``,
        ``rankb``, ``mb+rankb``) or a kernel instance.
    kernel_params: extra ``prepare`` arguments (e.g. ``block_counts``).
    init: initialization method name or explicit factor matrices.
    seed: RNG seed for the initialization.
    n_threads: when > 1, run each MTTKRP on that many threads of the
        shared-memory :class:`~repro.exec.ParallelExecutor` (results stay
        bitwise-equal to the serial path).
    """
    state = ALSState(
        tensor, rank, n_iters=n_iters, tol=tol, init=init, seed=seed
    )
    require(n_threads >= 1, "n_threads must be >= 1")
    if isinstance(kernel, str):
        kernel = get_kernel(kernel)
    kernel_params = dict(kernel_params or {})

    executor = None
    try:
        if n_threads > 1:
            from repro.exec import ParallelExecutor

            executor = ParallelExecutor(n_threads=n_threads)
            plans: "list[Plan] | list" = [
                executor.prepare(tensor, mode, kernel, **kernel_params)
                for mode in range(tensor.order)
            ]
        else:
            # One plan per mode, reused across iterations.  The any-mode
            # CSF kernel shares a single tree across all modes (its whole
            # point).
            from repro.kernels.csf_any import CSFAnyKernel

            if isinstance(kernel, CSFAnyKernel):
                base = kernel.prepare(tensor, 0, **kernel_params)
                plans = [
                    CSFAnyKernel.plan_for_mode(base, mode)
                    for mode in range(tensor.order)
                ]
            else:
                plans = [
                    kernel.prepare(tensor, mode, **kernel_params)
                    for mode in range(tensor.order)
                ]

        tracer = current_tracer()
        for iteration in range(1, n_iters + 1):
            with tracer.span("als.iteration", iteration=iteration):
                for mode in range(tensor.order):
                    if executor is not None:
                        m_mat = executor.execute(plans[mode], state.factors)
                    else:
                        m_mat = kernel.execute(plans[mode], state.factors)
                    state.update_mode(mode, m_mat)
                if state.fit_step(tensor):
                    break
    finally:
        # cp_als owns this executor; without the close, each call with
        # n_threads > 1 leaked a live worker pool.
        if executor is not None:
            executor.close()
    return state.result()
