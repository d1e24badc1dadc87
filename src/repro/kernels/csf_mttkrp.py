"""Root-mode MTTKRP over the general N-mode CSF tree, unblocked or
blocked.

The higher-order generalization of Algorithm 1 (Smith & Karypis's CSF
kernel): accumulate leaf contributions ``val * F_last[leaf]`` into their
parents, then walk the tree bottom-up, at each level scaling a node's
accumulated vector by its own factor row before passing it to its parent.
For 3-mode tensors this computes exactly what the SPLATT kernel computes
(the test suite checks that equivalence); it exists because the paper
notes its methodology "can trivially be extended to higher-order data".

That extension is the ``csf-blocked`` preset: multi-dimensional blocking
over an N-dimensional grid (a local CSF tree per block) composed with
rank strips, mirroring the 3-mode ``mb+rankb`` loop — strips outermost,
blocks inside, each pass against column views of the factors.  ``csf``
is the case with one block and one strip.

The leaf level (leaves into their parents, the fiber sums of lines 5-7
of Algorithm 1) is one compiled CSR product over the tree's own
``fptr``/``leaf_fids``/``vals`` (:func:`repro.kernels.base.fiber_sums`).
Each internal level is scaled by its factor rows (a NumPy gather) and
summed into its parents by a compiled segment sum
(:func:`repro.kernels.base.segment_sums_into`).  Neither needs scratch
beyond its ``nodes x R`` result, so this kernel takes no scratch budget.

The output mode is the tree's *root* mode; to compute MTTKRP for another
mode, build a CSF with that mode first in ``mode_order``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid, resolve_grid
from repro.blocking.partition import NDBlock, partition_coo_nd
from repro.blocking.rank import RankBlocking, resolve_rank_blocking
from repro.kernels.base import (
    BlockStats,
    Kernel,
    Plan,
    alloc_output,
    check_factors,
    factor_dtype,
    fiber_sums,
    intervals_from_rows,
    register_kernel,
    reject_unknown_params,
    seal_fibers,
    seal_pointers,
    segment_sums_into,
    unit_csr,
)
from repro.tensor.coo import COOTensor
from repro.tensor.csf import CSFTensor
from repro.util.errors import ConfigError

#: ``prepare`` parameters of the blocked preset, beyond ``mode_order``.
BLOCKED_PARAMS = ("grid", "block_counts", "rank_blocking", "n_rank_blocks")


def seal_tree(csf: CSFTensor, where: str) -> None:
    """:func:`~repro.kernels.base.seal_fibers` over a tree's leaf level,
    the CSR matrix :func:`~repro.kernels.base.fiber_sums` reads, and
    :func:`~repro.kernels.base.seal_pointers` over the pointers of the
    levels above it, which :func:`~repro.kernels.base.segment_sums_into`
    reads."""
    leaf_mode = csf.mode_order[-1]
    seal_fibers(
        csf.levels[-1].fptr, csf.leaf_fids, csf.vals, csf.shape[leaf_mode], where
    )
    for parent, child in zip(csf.levels, csf.levels[1:]):
        seal_pointers(parent.fptr, child.n_nodes, where)


class CSFPlan(Plan):
    """Prepared root-mode CSF MTTKRP (any order; the root mode is the
    output): one local CSF tree per block (one block when unblocked) and
    the rank blocking (``None`` for one strip)."""

    def __init__(
        self,
        kernel_name: str,
        shape: tuple[int, ...],
        mode: int,
        mode_order: tuple[int, ...],
        blocks: "list[tuple[NDBlock, CSFTensor]]",
        rank_blocking: "RankBlocking | None" = None,
    ) -> None:
        self.kernel_name = kernel_name
        self.shape = shape
        self.mode = mode
        self.mode_order = mode_order
        # For 3-mode trees the SPLATT naming applies directly; for higher
        # orders "inner" is the leaf mode and "fiber" the level above it.
        self.inner_mode = mode_order[-1]
        self.fiber_mode = mode_order[-2]
        self.blocks = blocks
        self.rank_blocking = rank_blocking
        for block, csf in blocks:
            seal_tree(csf, f"block {block.coords}, mode {self.inner_mode}")
        self._stats: "list[BlockStats] | None" = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            stats = []
            for block, csf in self.blocks:
                last = csf.levels[-1]
                inner_hist = np.bincount(csf.leaf_fids, minlength=0)
                fiber_hist = np.bincount(last.fids, minlength=0)
                inner_counts = inner_hist[inner_hist > 0]
                fiber_counts = fiber_hist[fiber_hist > 0]
                stats.append(
                    BlockStats(
                        coords=block.coords,
                        nnz=csf.nnz,
                        n_fibers=last.n_nodes,
                        distinct_out=int(np.unique(csf.levels[0].fids).size),
                        distinct_inner=int(inner_counts.shape[0]),
                        distinct_fiber=int(fiber_counts.shape[0]),
                        inner_counts=inner_counts,
                        fiber_counts=fiber_counts,
                    )
                )
            self._stats = stats
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only root-level rows (rows owning a subtree) are written:
        each block's root rows, shifted to global output coordinates."""
        rows = [
            csf.levels[0].fids + block.bounds[self.mode][0]
            for block, csf in self.blocks
        ]
        if not rows:
            return ()
        return intervals_from_rows(np.unique(np.concatenate(rows)))


class CSFKernel(Kernel):
    """N-mode root-mode CSF MTTKRP per (rank strip, mode block), one
    instance per registry name.

    ``blocked=True`` makes ``prepare`` take a mode grid, which it then
    requires, and optional rank strips (:data:`BLOCKED_PARAMS`).  Without
    them a plan has one block covering the tensor and one ``(0, R)``
    strip.
    """

    name = "csf"

    def __init__(self, name: "str | None" = None, *, blocked: bool = False) -> None:
        if name is not None:
            self.name = name
        self.blocked = blocked

    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> CSFPlan:
        """Build the CSF trees with ``mode`` at the root.

        ``mode_order`` optionally fixes the full ordering (its first entry
        must be ``mode``); the default orders the remaining modes by
        increasing length, SPLATT's heuristic for maximizing compression.
        """
        known = ("mode_order", *(BLOCKED_PARAMS if self.blocked else ()))
        reject_unknown_params(
            self.name, {k: v for k, v in params.items() if k not in known}, known
        )
        order = tensor.order
        mode = mode % order
        grid = resolve_grid(
            tensor.shape, params.get("grid"), params.get("block_counts")
        )
        if grid is None:
            if self.blocked:
                raise ConfigError(
                    f"kernel {self.name!r} needs a grid or block_counts"
                )
            grid = BlockGrid(tensor.shape, (1,) * order)
        rank_blocking = resolve_rank_blocking(
            params.get("rank_blocking"), params.get("n_rank_blocks")
        )
        mode_order = params.get("mode_order")
        if mode_order is None:
            others = sorted(
                (m for m in range(order) if m != mode),
                key=lambda m: tensor.shape[m],
            )
            mode_order = (mode, *others)
        else:
            mode_order = tuple(int(m) for m in mode_order)
            if mode_order[0] != mode:
                raise ConfigError(
                    f"mode_order {mode_order} must start with the output mode {mode}"
                )
        return CSFPlan(
            self.name, tensor.shape, mode, mode_order,
            partition_coo_nd(tensor, grid, mode_order), rank_blocking,
        )

    def execute(
        self,
        plan: CSFPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        order = len(plan.shape)
        for lo, hi in plan.strips(rank):
            for block, csf in plan.blocks:
                local_factors: list["np.ndarray | None"] = [None] * order
                for m in range(order):
                    if m == plan.mode:
                        continue
                    blo, bhi = block.bounds[m]
                    local_factors[m] = factors[m][blo:bhi, lo:hi]
                out_lo, out_hi = block.bounds[plan.mode]
                execute_csf_into(csf, local_factors, A[out_lo:out_hi, lo:hi])
        return A


def execute_csf_into(
    csf: CSFTensor, factors: Sequence[np.ndarray], A: np.ndarray
) -> None:
    """Run the root-mode CSF MTTKRP for one (sub-)tensor, accumulating
    into ``A`` (indexed by the root mode's local coordinates).

    ``factors`` is indexed by *original* mode (row views for a block,
    column views for a rank strip); the entry at the root mode is unused.
    """
    if csf.nnz == 0:
        return
    # Leaves -> last internal level: the compiled CSR product.
    leaf_mode = csf.mode_order[-1]
    [(_, _, acc)] = fiber_sums(
        csf.levels[-1].fptr, csf.leaf_fids, csf.vals,
        factors[leaf_mode], csf.shape[leaf_mode],
    )
    # Walk internal levels bottom-up: scale by the level's factor rows,
    # then sum children into parents (compiled segment sums; the last
    # internal level is the widest, so one unit CSR serves every level).
    unit = unit_csr(acc.shape[0], acc.dtype)
    for lvl_idx in range(len(csf.levels) - 1, 0, -1):
        acc = up_level(csf, lvl_idx, acc, factors, unit)

    # Root: fids are unique within this tree; accumulate (blocks of a
    # blocked plan may share root rows).
    A[csf.levels[0].fids] += acc


def up_level(
    csf: CSFTensor,
    lvl_idx: int,
    acc: np.ndarray,
    factors: Sequence[np.ndarray],
    unit: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """One step of the bottom-up pass: scale level ``lvl_idx``'s node
    sums ``acc`` (a fresh array, scaled in place) by the level's factor
    rows, and return their sums per parent node."""
    acc *= factors[csf.mode_order[lvl_idx]][csf.levels[lvl_idx].fids]
    parent = csf.levels[lvl_idx - 1]
    up = np.zeros((parent.n_nodes, acc.shape[1]), dtype=acc.dtype)
    segment_sums_into(parent.fptr, acc, up, unit)
    return up


register_kernel(CSFKernel())
register_kernel(CSFKernel("csf-blocked", blocked=True))
