"""MTTKRP on the coordinate format (Section III-C.1).

For each nonzero ``t = (i, j, k, v)`` the kernel forms the Hadamard product
of row ``j`` of ``B`` and row ``k`` of ``C``, scales by ``v``, and adds the
result to row ``i`` of ``A`` — ``3R`` flops and a full ``A``-row
read-modify-write per nonzero.  SPLATT's fiber grouping amortizes the
``C``/``A`` work over whole fibers, which is exactly what the paper's
``W`` comparison quantifies; this kernel is the baseline for that.

The implementation sorts nonzeros by output row at prepare time and
keeps dense pointers from each output row to its first nonzero, so the
scatter into ``A`` is the compiled segment sum every tree kernel runs
(:func:`repro.kernels.base.segment_sums_into`) instead of a per-element
``np.add.at``.  The per-nonzero products are built in cache-sized chunks
of whole output rows (:func:`repro.kernels.csf_mttkrp.row_chunks`), so
each ``A`` row is summed left to right in one chunk and the output is
the same for any scratch budget.
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
    seal_pointers,
    segment_sums_into,
    unit_csr,
)
from repro.kernels.csf_mttkrp import row_chunks
from repro.tensor.coo import COOTensor
from repro.util.validation import INDEX_DTYPE, check_mode


class COOPlan(Plan):
    """Prepared COO MTTKRP: nonzeros sorted by output row, and the dense
    pointers ``row_ptr`` from each output row to its first nonzero."""

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
        self.j = sorted_t.indices[:, self.inner_mode]
        self.k = sorted_t.indices[:, self.fiber_mode]
        self.vals = sorted_t.values
        n_rows = self.shape[mode]
        per_row = np.bincount(sorted_t.indices[:, mode], minlength=n_rows)
        self.row_ptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(per_row, out=self.row_ptr[1:])
        seal_pointers(self.row_ptr, self.vals.shape[0], f"COO plan, mode {mode}")
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
                    distinct_out=int(np.count_nonzero(np.diff(self.row_ptr))),
                    distinct_inner=int(inner_counts.shape[0]),
                    distinct_fiber=int(fiber_counts.shape[0]),
                    inner_counts=inner_counts,
                    fiber_counts=fiber_counts,
                )
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only output rows holding at least one nonzero are written."""
        return intervals_from_rows(np.flatnonzero(np.diff(self.row_ptr)))


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
        ptr = plan.row_ptr
        if ptr[-1] == 0:
            return
        rows = row_chunks(ptr, max(1, self.scratch_elems // max(A.shape[1], 1)))
        unit = unit_csr(int(np.diff(ptr[rows]).max()), A.dtype)
        for r0, r1 in zip(rows, rows[1:]):
            lo, hi = int(ptr[r0]), int(ptr[r1])
            # Tensor values are stored float64; casting the chunk to the
            # factor dtype keeps float32 runs float32 end-to-end (a no-op
            # view for float64).
            vals = plan.vals[lo:hi].astype(A.dtype, copy=False)
            contrib = vals[:, None] * B[plan.j[lo:hi]]
            contrib *= C[plan.k[lo:hi]]
            # Add each row's products into A, compiled and in place.
            segment_sums_into(ptr[r0 : r1 + 1] - lo, contrib, A[r0:r1], unit)


register_kernel(COOKernel())
