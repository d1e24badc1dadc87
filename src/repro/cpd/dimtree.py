"""Dimension-tree CP-ALS: memoizing partial MTTKRP contractions.

The paper's related work cites HyperTensor's extension "to include
memoization, which trades off storage overhead in order to reduce the
cost of individual MTTKRP operations" (Kaya's dimension trees).  This
module implements the 3-mode instance:

* the nonzeros are grouped by their ``(i, j)`` pair once (``P`` distinct
  pairs, ``P <= nnz``);
* each ALS sweep contracts the tensor with ``C`` *once* —
  ``Y[p, :] = sum_{t in p} x_t C[k_t, :]`` — and serves **both** the
  mode-0 and mode-1 MTTKRPs from the memoized ``Y``
  (``A[i] = sum_j Y[ij] * B[j]``, ``B[j] = sum_i Y[ij] * A[i]``);
* the mode-2 MTTKRP reuses the pair structure in the other direction:
  ``W[p] = A[i_p] * B[j_p]``, then ``C[k] = sum_t x_t W[pair(t)]``.

Per sweep this needs ``2R*nnz + 7R*P + 2R*nnz`` multiply-add flops
versus ``3 * 2R*(nnz + F)`` for three independent SPLATT MTTKRPs — a
saving whenever pairs are reused (``P`` well below ``nnz``), at ``8RP``
bytes of memo storage.  The ALS trajectory is *identical* to
:func:`repro.cpd.als.cp_als` (each update is still an exact MTTKRP),
which the test suite asserts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cpd.core import ALSResult, ALSState
from repro.obs.tracer import current_tracer
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError
from repro.util.validation import INDEX_DTYPE, check_rank


def _segments(keys: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Start offsets and key value of each run in a sorted key vector."""
    if keys.shape[0] == 0:
        empty = np.empty(0, dtype=INDEX_DTYPE)
        return empty, empty
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate(([0], boundaries))
    return starts, keys[starts]


class DimTreePlan:
    """Prepared pair-grouped structure for dimension-tree ALS."""

    def __init__(self, tensor: COOTensor) -> None:
        if tensor.order != 3:
            raise ConfigError("the dimension-tree driver is 3-mode")
        self.shape = tensor.shape
        sorted_t = tensor.sort((0, 1, 2))
        idx = sorted_t.indices
        self.vals = sorted_t.values
        self.k_of_nnz = idx[:, 2]

        nnz = tensor.nnz
        if nnz:
            new_pair = np.empty(nnz, dtype=bool)
            new_pair[0] = True
            np.logical_or(
                idx[1:, 0] != idx[:-1, 0],
                idx[1:, 1] != idx[:-1, 1],
                out=new_pair[1:],
            )
            starts = np.flatnonzero(new_pair)
            self.pair_ptr = np.concatenate(
                [starts, np.array([nnz], dtype=INDEX_DTYPE)]
            ).astype(INDEX_DTYPE)
            self.pair_i = idx[starts, 0]
            self.pair_j = idx[starts, 1]
            pair_len = np.diff(self.pair_ptr)
            self.pair_of_nnz = np.repeat(
                np.arange(starts.shape[0], dtype=INDEX_DTYPE), pair_len
            )
        else:
            self.pair_ptr = np.zeros(1, dtype=INDEX_DTYPE)
            self.pair_i = np.empty(0, dtype=INDEX_DTYPE)
            self.pair_j = np.empty(0, dtype=INDEX_DTYPE)
            self.pair_of_nnz = np.empty(0, dtype=INDEX_DTYPE)

        #: Pair order for the mode-1 update (grouped by j).
        self.by_j = np.argsort(self.pair_j, kind="stable")
        #: Nonzero order for the mode-2 update (grouped by k).
        self.by_k = np.argsort(self.k_of_nnz, kind="stable")

        # Segment structure of the three updates is fixed by the sparsity
        # pattern, so the starts/rows of each grouped reduction are
        # computed once here instead of per sweep.
        self._i_starts, self._i_rows = _segments(self.pair_i)
        self._j_sorted_i = self.pair_i[self.by_j]
        self._j_starts, self._j_rows = _segments(self.pair_j[self.by_j])
        self._k_sorted_pair = self.pair_of_nnz[self.by_k]
        self._k_starts, self._k_rows = _segments(self.k_of_nnz[self.by_k])

    @property
    def n_pairs(self) -> int:
        """Distinct (i, j) pairs — the memo's row count."""
        return int(self.pair_i.shape[0])

    @property
    def nnz(self) -> int:
        """Stored nonzeros."""
        return int(self.vals.shape[0])

    def memo_bytes(self, rank: int) -> int:
        """Storage of the memoized ``Y`` for one rank (at the value
        itemsize: float32 tensors halve the memo)."""
        return self.vals.dtype.itemsize * self.n_pairs * check_rank(rank)

    def flops_per_sweep(self, rank: int) -> float:
        """Multiply-add flops of one full 3-mode sweep."""
        rank = check_rank(rank)
        return 2.0 * rank * self.nnz + 7.0 * rank * self.n_pairs + 2.0 * rank * self.nnz

    def contract_mode2(self, c_factor: np.ndarray) -> np.ndarray:
        """The memo: ``Y[p, :] = sum_{t in p} x_t * C[k_t, :]``."""
        if self.nnz == 0:
            return np.zeros((0, c_factor.shape[1]), dtype=c_factor.dtype)
        vals = self.vals.astype(c_factor.dtype, copy=False)
        prod = vals[:, None] * c_factor[self.k_of_nnz]
        return np.add.reduceat(prod, self.pair_ptr[:-1], axis=0)

    def mttkrp_mode0(self, memo: np.ndarray, b_factor: np.ndarray) -> np.ndarray:
        """``A[i] = sum_j Y[ij] * B[j]`` via the i-grouped pair order."""
        out = np.zeros((self.shape[0], memo.shape[1]), dtype=memo.dtype)
        if self.n_pairs == 0:
            return out
        contrib = memo * b_factor[self.pair_j]
        out[self._i_rows] = np.add.reduceat(contrib, self._i_starts, axis=0)
        return out

    def mttkrp_mode1(self, memo: np.ndarray, a_factor: np.ndarray) -> np.ndarray:
        """``B[j] = sum_i Y[ij] * A[i]`` via the j-sorted pair order."""
        out = np.zeros((self.shape[1], memo.shape[1]), dtype=memo.dtype)
        if self.n_pairs == 0:
            return out
        contrib = memo[self.by_j] * a_factor[self._j_sorted_i]
        out[self._j_rows] = np.add.reduceat(contrib, self._j_starts, axis=0)
        return out

    def mttkrp_mode2(
        self, a_factor: np.ndarray, b_factor: np.ndarray
    ) -> np.ndarray:
        """``C[k] = sum_t x_t * (A[i_t] * B[j_t])``, reusing the pair
        products ``W[p] = A[i_p] * B[j_p]``."""
        out = np.zeros((self.shape[2], a_factor.shape[1]), dtype=a_factor.dtype)
        if self.nnz == 0:
            return out
        w = a_factor[self.pair_i] * b_factor[self.pair_j]
        vals = self.vals.astype(a_factor.dtype, copy=False)
        contrib = vals[self.by_k, None] * w[self._k_sorted_pair]
        out[self._k_rows] = np.add.reduceat(contrib, self._k_starts, axis=0)
        return out


def cp_als_dimtree(
    tensor: COOTensor,
    rank: int,
    *,
    n_iters: int = 50,
    tol: float = 1e-5,
    init: "str | Sequence[np.ndarray]" = "random",
    seed: "int | None | np.random.Generator" = 0,
) -> ALSResult:
    """CP-ALS with dimension-tree memoization (3-mode tensors).

    Produces exactly the trajectory of :func:`repro.cpd.als.cp_als` with
    the default kernel, at fewer flops per sweep when pairs are reused.
    """
    state = ALSState(
        tensor, rank, n_iters=n_iters, tol=tol, init=init, seed=seed
    )
    plan = DimTreePlan(tensor)
    factors = state.factors

    tracer = current_tracer()
    for iteration in range(1, n_iters + 1):
        with tracer.span("als.iteration", iteration=iteration, driver="dimtree"):
            # One contraction with C serves both the mode-0 and mode-1
            # updates (recomputed after the mode-2 update changes C next
            # sweep).
            memo = plan.contract_mode2(factors[2])
            for mode in range(3):
                with tracer.span(
                    "mttkrp", kernel="dimtree", mode=mode, nnz=plan.nnz,
                    n_pairs=plan.n_pairs,
                ):
                    if mode == 0:
                        m_mat = plan.mttkrp_mode0(memo, factors[1])
                    elif mode == 1:
                        m_mat = plan.mttkrp_mode1(memo, factors[0])
                    else:
                        m_mat = plan.mttkrp_mode2(factors[0], factors[1])
                state.update_mode(mode, m_mat)
            if state.fit_step(tensor):
                break
    return state.result()
