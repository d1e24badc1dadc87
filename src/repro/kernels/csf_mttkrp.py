"""Root-mode MTTKRP over the general N-mode CSF tree.

The higher-order generalization of Algorithm 1 (Smith & Karypis's CSF
kernel): accumulate leaf contributions ``val * F_last[leaf]`` into their
parents, then walk the tree bottom-up, at each level scaling a node's
accumulated vector by its own factor row before passing it to its parent.
For 3-mode tensors this computes exactly what the SPLATT kernel computes
(the test suite checks that equivalence); it exists because the paper
notes its methodology "can trivially be extended to higher-order data".

The output mode is the tree's *root* mode; to compute MTTKRP for another
mode, build a CSF with that mode first in ``mode_order``.
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
from repro.tensor.csf import CSFTensor


class CSFPlan(Plan):
    """Prepared CSF MTTKRP (any order >= 3; root mode is the output)."""

    kernel_name = "csf"

    def __init__(self, csf: CSFTensor) -> None:
        self.csf = csf
        self.shape = csf.shape
        self.mode = csf.root_mode
        # For 3-mode trees the SPLATT naming applies directly; for higher
        # orders "inner" is the leaf mode and "fiber" the level above it.
        self.inner_mode = csf.mode_order[-1]
        self.fiber_mode = csf.mode_order[-2]
        self._stats: list[BlockStats] | None = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            csf = self.csf
            last = csf.levels[-1]
            inner_hist = np.bincount(csf.leaf_fids) if csf.nnz else np.empty(0, int)
            fiber_hist = (
                np.bincount(last.fids) if last.n_nodes else np.empty(0, int)
            )
            inner_counts = inner_hist[inner_hist > 0]
            fiber_counts = fiber_hist[fiber_hist > 0]
            self._stats = [
                BlockStats(
                    coords=tuple(0 for _ in csf.shape),
                    nnz=csf.nnz,
                    n_fibers=last.n_nodes,
                    distinct_out=int(np.unique(csf.levels[0].fids).size),
                    distinct_inner=int(inner_counts.shape[0]),
                    distinct_fiber=int(fiber_counts.shape[0]),
                    inner_counts=inner_counts,
                    fiber_counts=fiber_counts,
                )
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only root-level rows (rows owning a subtree) are written."""
        return intervals_from_rows(np.unique(self.csf.levels[0].fids))


class CSFKernel(Kernel):
    """N-mode CSF root-mode MTTKRP."""

    name = "csf"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        mode_order: "Sequence[int] | None" = None,
        **params: object,
    ) -> CSFPlan:
        """Build the CSF tree with ``mode`` at the root.

        ``mode_order`` optionally fixes the full ordering (its first entry
        must be ``mode``); the default orders the remaining modes by
        increasing length, SPLATT's heuristic for maximizing compression.
        """
        reject_unknown_params(self.name, params, known=("mode_order",))
        order = tensor.order
        mode = mode % order
        if mode_order is None:
            others = sorted(
                (m for m in range(order) if m != mode),
                key=lambda m: tensor.shape[m],
            )
            mode_order = (mode, *others)
        else:
            mode_order = tuple(int(m) for m in mode_order)
            if mode_order[0] != mode:
                raise ValueError(
                    f"mode_order {mode_order} must start with the output mode {mode}"
                )
        return CSFPlan(CSFTensor.from_coo(tensor, mode_order))

    def execute(
        self,
        plan: CSFPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        execute_csf_into(plan.csf, factors, A, self.scratch_elems)
        return A


def execute_csf_into(
    csf: CSFTensor,
    factors: Sequence[np.ndarray],
    A: np.ndarray,
    scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
) -> None:
    """Run the root-mode CSF MTTKRP for one (sub-)tensor, accumulating
    into ``A`` (indexed by the root mode's local coordinates).

    ``factors`` is indexed by *original* mode; the entry at the root mode
    is unused.  Shared with the blocked CSF kernel, which calls it per
    block against factor-row slices.
    """
    if csf.nnz == 0:
        return
    rank = A.shape[1]

    # Leaves -> last internal level, in bounded-scratch chunks.
    last = csf.levels[-1]
    fptr = last.fptr
    vals = csf.vals
    leaf_fids = csf.leaf_fids
    leaf_factor = factors[csf.mode_order[-1]]
    target_nnz = max(1, scratch_elems // max(rank, 1))
    chunks: list[np.ndarray] = []
    n_nodes = last.n_nodes
    f0 = 0
    while f0 < n_nodes:
        f1 = int(
            np.searchsorted(fptr, fptr[f0] + target_nnz, side="right") - 1
        )
        f1 = min(max(f1, f0 + 1), n_nodes)
        lo, hi = int(fptr[f0]), int(fptr[f1])
        # Cast the value chunk to the output dtype so float32 factors stay
        # float32 (no-op view for float64).
        vchunk = vals[lo:hi].astype(A.dtype, copy=False)
        prod = vchunk[:, None] * leaf_factor[leaf_fids[lo:hi]]
        chunks.append(np.add.reduceat(prod, fptr[f0:f1] - lo, axis=0))
        f0 = f1
    acc = np.concatenate(chunks, axis=0) if len(chunks) > 1 else chunks[0]

    # Walk internal levels bottom-up: scale by the level's factor rows,
    # then reduce children into parents.
    for lvl_idx in range(len(csf.levels) - 1, 0, -1):
        lvl = csf.levels[lvl_idx]
        acc = acc * factors[csf.mode_order[lvl_idx]][lvl.fids]
        parent = csf.levels[lvl_idx - 1]
        acc = np.add.reduceat(acc, parent.fptr[:-1], axis=0)

    # Root: fids are unique within this tree; accumulate (blocks of a
    # blocked plan may share root rows).
    A[csf.levels[0].fids] += acc


register_kernel(CSFKernel())
