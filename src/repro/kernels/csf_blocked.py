"""Blocked MTTKRP for general N-mode tensors — the higher-order
extension of Section V.

The paper restricts its experiments to 3-mode SPLATT data "but our
methodology and result can trivially be extended to higher-order data";
this kernel is that extension: multi-dimensional blocking over an
N-dimensional grid (each block a local CSF tree executed against factor
slices) composed with rank strips, exactly mirroring the 3-mode
``mb+rankb`` kernel.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.blocking.partition import NDBlock, partition_coo_nd
from repro.blocking.rank import RankBlocking
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
from repro.kernels.blocked import resolve_grid
from repro.kernels.csf_mttkrp import execute_csf_into
from repro.tensor.coo import COOTensor
from repro.tensor.csf import CSFTensor
from repro.util.errors import ConfigError


class BlockedCSFPlan(Plan):
    """Prepared N-mode blocked (and optionally rank-stripped) MTTKRP."""

    kernel_name = "csf-blocked"

    def __init__(
        self,
        shape: tuple[int, ...],
        mode: int,
        mode_order: tuple[int, ...],
        blocks: "list[tuple[NDBlock, CSFTensor]]",
        rank_blocking: "RankBlocking | None",
    ) -> None:
        self.shape = shape
        self.mode = mode
        self.mode_order = mode_order
        # For the machine model: inner = leaf mode, fiber = level above.
        self.inner_mode = mode_order[-1]
        self.fiber_mode = mode_order[-2]
        self.blocks = blocks
        self.rank_blocking = rank_blocking
        self._stats: "list[BlockStats] | None" = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            stats = []
            for block, csf in self.blocks:
                last = csf.levels[-1]
                inner_hist = np.bincount(csf.leaf_fids)
                fiber_hist = np.bincount(last.fids)
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
        """Per-block root rows shifted to global output coordinates."""
        rows = [
            csf.levels[0].fids + block.bounds[self.mode][0]
            for block, csf in self.blocks
            if csf.levels[0].n_nodes
        ]
        if not rows:
            return ()
        return intervals_from_rows(np.unique(np.concatenate(rows)))


class BlockedCSFKernel(Kernel):
    """MB(+RankB) for any tensor order, over per-block CSF trees."""

    name = "csf-blocked"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        grid: "BlockGrid | None" = None,
        block_counts: "Sequence[int] | None" = None,
        mode_order: "Sequence[int] | None" = None,
        rank_blocking: "RankBlocking | None" = None,
        n_rank_blocks: "int | None" = None,
        **params: object,
    ) -> BlockedCSFPlan:
        reject_unknown_params(
            self.name,
            params,
            known=(
                "grid",
                "block_counts",
                "mode_order",
                "rank_blocking",
                "n_rank_blocks",
            ),
        )
        order = tensor.order
        if order < 3:
            raise ConfigError("the blocked CSF kernel expects order >= 3")
        mode = mode % order
        if grid is None and block_counts is None:
            raise ConfigError(
                "the blocked CSF kernel needs a grid or block_counts"
            )
        grid = resolve_grid(tensor, grid, block_counts)
        if mode_order is None:
            others = sorted(
                (m for m in range(order) if m != mode),
                key=lambda m: tensor.shape[m],
            )
            mode_order = (mode, *others)
        else:
            mode_order = tuple(int(m) for m in mode_order)
            if mode_order[0] != mode:
                raise ConfigError("mode_order must start with the output mode")
        if n_rank_blocks is not None:
            if rank_blocking is not None:
                raise ConfigError("give rank_blocking or n_rank_blocks, not both")
            rank_blocking = RankBlocking(n_blocks=int(n_rank_blocks))

        blocks = [
            (block, CSFTensor.from_coo(block.tensor, mode_order))
            for block in partition_coo_nd(tensor, grid)
        ]
        return BlockedCSFPlan(
            tensor.shape, mode, mode_order, blocks, rank_blocking
        )

    def execute(
        self,
        plan: BlockedCSFPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        strips = (
            plan.rank_blocking.strips(rank)
            if plan.rank_blocking is not None
            else [(0, rank)]
        )
        order = len(plan.shape)
        for lo, hi in strips:
            for block, csf in plan.blocks:
                local_factors: list["np.ndarray | None"] = [None] * order
                for m in range(order):
                    if m == plan.mode:
                        continue
                    blo, bhi = block.bounds[m]
                    local_factors[m] = np.ascontiguousarray(
                        factors[m][blo:bhi, lo:hi]
                    )
                out_lo, out_hi = block.bounds[plan.mode]
                execute_csf_into(
                    csf,
                    local_factors,
                    A[out_lo:out_hi, lo:hi],
                    self.scratch_elems,
                )
        return A


register_kernel(BlockedCSFKernel())
