"""MTTKRP on the coordinate format (Section III-C.1).

For each nonzero ``t = (i, j, k, v)`` the kernel forms the Hadamard product
of row ``j`` of ``B`` and row ``k`` of ``C``, scales by ``v``, and adds the
result to row ``i`` of ``A`` — ``3R`` flops and a full ``A``-row
read-modify-write per nonzero.  SPLATT's fiber grouping amortizes the
``C``/``A`` work over whole fibers, which is exactly what the paper's
``W`` comparison quantifies; this kernel is the baseline for that.

The implementation sorts nonzeros by output row at prepare time so the
scatter into ``A`` becomes a segmented reduction (``np.add.reduceat``)
instead of a per-element ``np.add.at``.  The per-nonzero products are
built in cache-sized chunks that end on output-row boundaries, so each
``A`` row is reduced in one chunk and the output is the same for any
scratch budget.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.base import (
    DEFAULT_SCRATCH_ELEMS,
    BlockStats,
    Kernel,
    Plan,
    intervals_from_rows,
    register_kernel,
    reject_unknown_params,
)
from repro.tensor.coo import COOTensor
from repro.util.validation import check_mode


class COOPlan(Plan):
    """Prepared COO MTTKRP: nonzeros sorted by output row."""

    kernel_name = "coo"

    def __init__(self, tensor: COOTensor, mode: int) -> None:
        mode = check_mode(mode, tensor.order)
        if tensor.order != 3:
            raise ValueError("the COO kernel in this library is 3-mode")
        self.shape = tensor.shape
        self.mode = mode
        self.inner_mode = (mode + 1) % 3
        self.fiber_mode = (mode + 2) % 3
        sorted_t = tensor.sort((mode, self.fiber_mode, self.inner_mode))
        self.i = sorted_t.indices[:, mode]
        self.j = sorted_t.indices[:, self.inner_mode]
        self.k = sorted_t.indices[:, self.fiber_mode]
        self.vals = sorted_t.values
        self._stats: list[BlockStats] | None = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            nnz = int(self.vals.shape[0])
            inner_hist = np.bincount(self.j)
            fiber_hist = np.bincount(self.k)
            inner_counts = inner_hist[inner_hist > 0]
            fiber_counts = fiber_hist[fiber_hist > 0]
            self._stats = [
                BlockStats(
                    coords=(0, 0, 0),
                    nnz=nnz,
                    # COO has no fiber grouping: every nonzero is its own
                    # "fiber" for accounting purposes (it touches a C row).
                    n_fibers=nnz,
                    distinct_out=int(np.unique(self.i).size),
                    distinct_inner=int(inner_counts.shape[0]),
                    distinct_fiber=int(fiber_counts.shape[0]),
                    inner_counts=inner_counts,
                    fiber_counts=fiber_counts,
                )
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only output rows holding at least one nonzero are written."""
        return intervals_from_rows(np.unique(self.i))


class COOKernel(Kernel):
    """The coordinate-format MTTKRP baseline."""

    name = "coo"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> COOPlan:
        reject_unknown_params(self.name, params)
        return COOPlan(tensor, mode)

    def run(
        self, plan: COOPlan, factors: Sequence[np.ndarray], A: np.ndarray
    ) -> None:
        B = factors[plan.inner_mode]
        C = factors[plan.fiber_mode]
        nnz = plan.vals.shape[0]
        rank = A.shape[1]
        chunk = max(1, self.scratch_elems // max(rank, 1))
        out_rows = plan.i
        lo = 0
        while lo < nnz:
            # End the chunk on an output-row boundary, keeping at least
            # one whole row.
            hi = min(lo + chunk, nnz)
            if hi < nnz:
                row = out_rows[hi]
                hi = int(np.searchsorted(out_rows, row, side="left"))
                if hi <= lo:
                    hi = int(np.searchsorted(out_rows, row, side="right"))
            i = out_rows[lo:hi]
            # Tensor values are stored float64; casting the chunk to the
            # factor dtype keeps float32 runs float32 end-to-end (a no-op
            # view for float64).
            vals = plan.vals[lo:hi].astype(A.dtype, copy=False)
            contrib = vals[:, None] * B[plan.j[lo:hi]]
            contrib *= C[plan.k[lo:hi]]
            # Nonzeros are sorted by i: reduce runs of equal i, then add the
            # partial sums into A.
            boundaries = np.flatnonzero(np.diff(i)) + 1
            starts = np.concatenate(([0], boundaries))
            partial = np.add.reduceat(contrib, starts, axis=0)
            A[i[starts]] += partial
            lo = hi


register_kernel(COOKernel())
