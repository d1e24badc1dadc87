"""The CP-ALS update core shared by every ALS driver.

:func:`repro.cpd.als.cp_als` and :func:`repro.dist.als.distributed_cp_als`
differ only in how they compute each mode's MTTKRP (kernel/executor
dispatch, sharded ranks).  Everything around it lives here, in three
steps:

* **start** (:class:`ALSState`): initialise the factors (or copy and
  check explicit ones), validate ``n_iters``/``tol``, and build the Gram
  matrices;
* **update one mode** (:meth:`ALSState.update_mode`)::

      V   = Hadamard product of F_m^T F_m, m != n  # R x R
      F_n = M V^+                                  # small LS solve
      normalize columns of F_n into lambda

* **fit step** (:meth:`ALSState.fit_step`): the fit, the ``als.fit``
  metric, and the ``tol`` convergence check.

The working dtype is derived from ``tensor.values``: a float32 tensor
yields float32 factors, weights, and grams end-to-end (the kernels'
precision contract), everything else runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cpd.init import init_factors
from repro.cpd.ktensor import KruskalTensor
from repro.obs.tracer import current_tracer
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError
from repro.util.validation import check_rank, require, value_dtype_of


@dataclass
class ALSResult:
    """Outcome of a CP-ALS run."""

    model: KruskalTensor
    #: Fit after every iteration (1 = perfect reconstruction).
    fits: list[float] = field(default_factory=list)
    #: Number of completed iterations.
    n_iters: int = 0
    #: True when the fit-change tolerance stopped the run early.
    converged: bool = False

    @property
    def final_fit(self) -> float:
        """Fit of the returned model."""
        return self.fits[-1] if self.fits else 0.0


def check_init_factors(
    factors: "Sequence[np.ndarray]",
    shape: "tuple[int, ...]",
    rank: int,
) -> None:
    """Validate explicit initial factors: one per mode, each exactly
    ``(shape[m], rank)`` and finite — naming the offending mode (and
    entry) instead of failing deep inside the first MTTKRP or solve."""
    if len(factors) != len(shape):
        raise ConfigError(
            f"need one initial factor per mode: got {len(factors)} for a "
            f"{len(shape)}-mode tensor"
        )
    for m, f in enumerate(factors):
        if f.ndim != 2 or f.shape != (shape[m], rank):
            raise ConfigError(
                f"initial factor for mode {m} must have shape "
                f"({shape[m]}, {rank}), got {tuple(f.shape)}"
            )
        finite = np.isfinite(f)
        if not finite.all():
            row, col = (int(i) for i in np.argwhere(~finite)[0])
            raise ConfigError(
                f"initial factor for mode {m} has non-finite entry "
                f"{f[row, col]} at ({row}, {col})"
            )


class ALSState:
    """Factors, Gram matrices, weights, and fit history of one CP-ALS run.

    Constructing it is the start step; a driver then calls
    :meth:`update_mode` once per mode with that mode's MTTKRP and
    :meth:`fit_step` once per sweep.
    """

    def __init__(
        self,
        tensor: COOTensor,
        rank: int,
        *,
        n_iters: int,
        tol: float,
        init: "str | Sequence[np.ndarray]" = "random",
        seed: "int | None | np.random.Generator" = 0,
    ) -> None:
        rank = check_rank(rank)
        dtype = value_dtype_of(tensor.values)
        if isinstance(init, str):
            factors = init_factors(tensor, rank, method=init, seed=seed)
        else:
            # Copies: the caller's arrays are never updated in place.
            factors = [np.ascontiguousarray(f, dtype=dtype) for f in init]
            check_init_factors(factors, tensor.shape, rank)
        require(n_iters >= 1, "n_iters must be >= 1")
        require(tol >= 0, "tol must be non-negative")
        self.rank = rank
        self.dtype = dtype
        self.tol = tol
        self.factors = factors
        self.grams = [f.T @ f for f in factors]
        self.weights = np.ones(rank, dtype=dtype)
        self.norm_x = float(np.linalg.norm(tensor.values))
        self.fits: list[float] = []
        self.converged = False

    @property
    def model(self) -> KruskalTensor:
        """The current Kruskal model."""
        return KruskalTensor(self.weights, self.factors)

    def update_mode(
        self, mode: int, m_mat: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Solve for mode ``mode``'s factor from its MTTKRP ``m_mat``,
        normalise its columns into the weights, and refresh its Gram.
        Returns the new factor and weights."""
        v = np.ones((self.rank, self.rank), dtype=self.dtype)
        for m, g in enumerate(self.grams):
            if m != mode:
                v *= g
        f_new = m_mat @ np.linalg.pinv(v)
        # Column normalization: max-norm on the first sweep, 2-norm after
        # (standard CP-ALS practice, keeps early weights from collapsing).
        if not self.fits:
            norms = np.maximum(np.abs(f_new).max(axis=0), 1e-12)
        else:
            norms = np.linalg.norm(f_new, axis=0)
            norms = np.where(norms > 1e-12, norms, 1.0)
        f_new = f_new / norms
        self.weights = norms.astype(self.dtype, copy=False)
        self.factors[mode] = np.ascontiguousarray(f_new, dtype=self.dtype)
        self.grams[mode] = self.factors[mode].T @ self.factors[mode]
        return self.factors[mode], self.weights

    def fit_step(self, tensor: COOTensor) -> bool:
        """Record the fit after a full sweep; True once the fit changed
        by less than ``tol`` (the run has converged)."""
        fit = self.model.fit(tensor, self.norm_x)
        self.fits.append(fit)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.metric("als.fit", fit, step=len(self.fits))
        self.converged = (
            len(self.fits) >= 2 and abs(self.fits[-1] - self.fits[-2]) < self.tol
        )
        return self.converged

    def result(self) -> ALSResult:
        """The run's outcome after the last sweep."""
        return ALSResult(
            model=self.model,
            fits=self.fits,
            n_iters=len(self.fits),
            converged=self.converged,
        )
