"""Kruskal tensors: the weighted rank-R factored form produced by CPD.

A Kruskal tensor is ``sum_r lambda_r a_r (x) b_r (x) c_r ...`` with unit-
norm factor columns.  Norms, inner products against sparse tensors, and
fit are computed factored (never densifying), which is what makes CP-ALS
on large sparse tensors feasible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.base import DEFAULT_SCRATCH_ELEMS
from repro.tensor.coo import COOTensor
from repro.util.errors import ShapeError
from repro.util.validation import VALUE_DTYPE


class KruskalTensor:
    """Weights ``lambda`` plus one ``(I_m, R)`` factor per mode."""

    def __init__(
        self, weights: np.ndarray, factors: Sequence[np.ndarray]
    ) -> None:
        # The model keeps one shared precision: float32 only when every
        # input is float32 (matching the kernels' contract), float64
        # otherwise — so a float32 CP-ALS run stays float32 end-to-end.
        parts = [np.asanyarray(weights)] + [np.asanyarray(f) for f in factors]
        if all(p.dtype == np.float32 for p in parts):
            dtype = np.dtype(np.float32)
        else:
            dtype = np.dtype(VALUE_DTYPE)
        self.weights = np.ascontiguousarray(weights, dtype=dtype)
        self.factors = [
            np.ascontiguousarray(f, dtype=dtype) for f in factors
        ]
        if self.weights.ndim != 1:
            raise ShapeError("weights must be 1-D")
        rank = self.weights.shape[0]
        for m, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ShapeError(
                    f"factor {m} must have {rank} columns, got shape {f.shape}"
                )
        if len(self.factors) < 2:
            raise ShapeError("a Kruskal tensor needs at least 2 modes")

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Decomposition rank ``R``."""
        return int(self.weights.shape[0])

    @property
    def shape(self) -> tuple[int, ...]:
        """Mode lengths."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.factors)

    # ------------------------------------------------------------------
    def norm(self) -> float:
        """Frobenius norm via the Gram-matrix identity:
        ``||X||^2 = lambda^T (G_1 * G_2 * ... ) lambda`` with
        ``G_m = F_m^T F_m`` and ``*`` the Hadamard product."""
        gram = np.ones((self.rank, self.rank), dtype=self.weights.dtype)
        for f in self.factors:
            gram *= f.T @ f
        value = float(self.weights @ gram @ self.weights)
        return float(np.sqrt(max(value, 0.0)))

    def innerprod(self, tensor: COOTensor) -> float:
        """``<X, X_hat>`` against a sparse tensor, evaluated only at the
        stored nonzeros: ``sum_t v_t * sum_r lambda_r prod_m F_m[i_m, r]``."""
        if tensor.shape != self.shape:
            raise ShapeError(
                f"tensor shape {tensor.shape} != model shape {self.shape}"
            )
        if tensor.nnz == 0:
            return 0.0
        # The (nnz x R) product rows are built one cache-sized chunk at a
        # time; only the per-nonzero model values ``y`` span the tensor.
        columns = [
            np.ascontiguousarray(tensor.indices[:, m]) for m in range(self.order)
        ]
        y = np.empty(tensor.nnz, dtype=self.weights.dtype)
        chunk = max(1, DEFAULT_SCRATCH_ELEMS // self.rank)
        for lo in range(0, tensor.nnz, chunk):
            hi = lo + chunk
            rows = self.factors[0][columns[0][lo:hi]]
            for f, col in zip(self.factors[1:], columns[1:]):
                rows *= f[col[lo:hi]]
            y[lo:hi] = rows @ self.weights
        return float(tensor.values @ y)

    def fit(self, tensor: COOTensor, tensor_norm: "float | None" = None) -> float:
        """CP fit: ``1 - ||X - X_hat|| / ||X||`` (1 = perfect)."""
        if tensor_norm is None:
            tensor_norm = float(np.linalg.norm(tensor.values))
        if tensor_norm == 0.0:
            return 1.0 if self.norm() == 0.0 else 0.0
        model_norm = self.norm()
        residual_sq = (
            tensor_norm**2 + model_norm**2 - 2.0 * self.innerprod(tensor)
        )
        return 1.0 - np.sqrt(max(residual_sq, 0.0)) / tensor_norm

    def full(self) -> np.ndarray:
        """Densify (small tensors only — used by tests)."""
        total = float(np.prod([float(s) for s in self.shape]))
        if total > 5e7:
            raise ShapeError("refusing to densify a large Kruskal tensor")
        letters = "abcdefgh"[: self.order]
        expr = (
            "r,"
            + ",".join(f"{letter}r" for letter in letters)
            + "->"
            + letters
        )
        return np.einsum(expr, self.weights, *self.factors, optimize=True)

    def normalize(self) -> "KruskalTensor":
        """Return an equivalent Kruskal tensor with unit-norm columns
        (norms absorbed into the weights)."""
        weights = self.weights.copy()
        factors = []
        for f in self.factors:
            norms = np.linalg.norm(f, axis=0)
            norms = np.where(norms > 0, norms, 1.0)
            factors.append(f / norms)
            weights = weights * norms
        return KruskalTensor(weights, factors)

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"KruskalTensor(shape={dims}, rank={self.rank})"
