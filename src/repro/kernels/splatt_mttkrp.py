"""The SPLATT MTTKRP kernel — Algorithm 1 of the paper.

For every fiber (group of nonzeros sharing the output row ``i`` and fiber
coordinate ``k``) the kernel:

1. accumulates ``s[r] += val * B[j][r]`` over the fiber's nonzeros
   (lines 5-7 of Algorithm 1), then
2. adds ``s * C[k]`` into ``A[i]`` (lines 8-9),

saving ``R`` flops and an ``A``/``C`` row access per nonzero beyond the
first in each fiber, relative to the COO kernel.

The vectorized implementation materializes the per-nonzero products for a
bounded *chunk* of fibers, reduces them fiber-wise with
``np.add.reduceat``, scales by the ``C`` rows, reduces row-wise, and
accumulates into ``A``.  :func:`execute_splatt_into` is shared with the
blocked kernels (a blocked MTTKRP is this routine per block).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.kernels.base import (
    DEFAULT_SCRATCH_ELEMS,
    BlockStats,
    Kernel,
    Plan,
    alloc_output,
    check_factors,
    factor_dtype,
    intervals_from_rows,
    register_kernel,
    reject_unknown_params,
)
from repro.tensor.coo import COOTensor
from repro.tensor.splatt import SplattTensor
from repro.util.validation import INDEX_DTYPE


def row_of_fiber(splatt: SplattTensor) -> np.ndarray:
    """Output-row index of every fiber (length ``F``)."""
    return np.repeat(
        np.arange(splatt.n_rows, dtype=INDEX_DTYPE), splatt.fibers_per_row()
    )


def execute_splatt_into(
    splatt: SplattTensor,
    fiber_rows: np.ndarray,
    B: np.ndarray,
    C: np.ndarray,
    A: np.ndarray,
    scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
) -> None:
    """Run Algorithm 1 for one SPLATT-compressed (sub-)tensor, accumulating
    into ``A`` (global row indices; callers pass views/column strips for
    rank blocking).

    ``fiber_rows`` is the per-fiber output row (:func:`row_of_fiber`),
    precomputed by the plan so repeated executions don't pay for it.
    """
    n_fibers = splatt.n_fibers
    if n_fibers == 0:
        return
    rank = B.shape[1]
    fiber_ptr = splatt.fiber_ptr
    target_nnz = max(1, scratch_elems // max(rank, 1))

    f0 = 0
    while f0 < n_fibers:
        # Largest fiber range whose nonzeros fit the scratch budget (always
        # at least one fiber to guarantee progress).
        f1 = int(
            np.searchsorted(fiber_ptr, fiber_ptr[f0] + target_nnz, side="right") - 1
        )
        f1 = min(max(f1, f0 + 1), n_fibers)
        lo, hi = int(fiber_ptr[f0]), int(fiber_ptr[f1])

        # Lines 5-7: per-fiber accumulation of val * B[j].  The value
        # chunk is cast to the output dtype so float32 factors stay
        # float32 (no-op view for float64).
        vals = splatt.vals[lo:hi].astype(A.dtype, copy=False)
        prod = vals[:, None] * B[splatt.jidx[lo:hi]]
        fiber_acc = np.add.reduceat(prod, fiber_ptr[f0:f1] - lo, axis=0)

        # Lines 8-9: scale by the fiber's C row, reduce fibers into rows.
        fiber_acc *= C[splatt.fiber_kidx[f0:f1]]
        rows = fiber_rows[f0:f1]
        boundaries = np.flatnonzero(np.diff(rows)) + 1
        starts = np.concatenate(([0], boundaries))
        A[rows[starts]] += np.add.reduceat(fiber_acc, starts, axis=0)

        f0 = f1


class SplattPlan(Plan):
    """Prepared SPLATT MTTKRP: the fiber-compressed tensor plus the
    per-fiber output-row map."""

    kernel_name = "splatt"

    def __init__(self, splatt: SplattTensor) -> None:
        self.splatt = splatt
        self.shape = splatt.shape
        self.mode = splatt.output_mode
        self.inner_mode = splatt.inner_mode
        self.fiber_mode = splatt.fiber_mode
        self.fiber_rows = row_of_fiber(splatt)
        self._stats: list[BlockStats] | None = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            self._stats = [BlockStats.from_splatt(self.splatt, (0, 0, 0))]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only rows that own at least one fiber are ever written."""
        return intervals_from_rows(np.unique(self.fiber_rows))


class SplattKernel(Kernel):
    """The state-of-the-art baseline the paper optimizes (Algorithm 1)."""

    name = "splatt"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> SplattPlan:
        reject_unknown_params(self.name, params)
        return SplattPlan(SplattTensor.from_coo(tensor, output_mode=mode))

    def execute(
        self,
        plan: SplattPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        B = factors[plan.inner_mode]
        C = factors[plan.fiber_mode]
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        execute_splatt_into(
            plan.splatt, plan.fiber_rows, B, C, A, self.scratch_elems
        )
        return A


register_kernel(SplattKernel())
