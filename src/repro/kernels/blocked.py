"""Multi-dimensional blocked MTTKRP (Section V-A, Figure 3a).

The tensor is reorganized into an axis-aligned grid of blocks; each block
is a small SPLATT tensor executed with Algorithm 1 against *slices* of the
factor matrices.  If a block's factor slices fit in cache, their rows are
served from cache instead of being streamed from memory — at the price of
``N_A*N_C`` redundant passes over ``B``, ``N_A*N_B`` over ``C`` and
``N_B*N_C`` over ``A`` (the trade-off quantified in Section V-A and
explored in the Figure 5 sweep).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.blocking.partition import BlockedTensor, partition_coo
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
from repro.kernels.splatt_mttkrp import execute_splatt_into, row_of_fiber
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError


class MBPlan(Plan):
    """Prepared multi-dimensional-blocked MTTKRP."""

    kernel_name = "mb"

    def __init__(self, blocked: BlockedTensor) -> None:
        self.blocked = blocked
        self.shape = blocked.shape
        self.mode = blocked.output_mode
        self.inner_mode = blocked.inner_mode
        self.fiber_mode = blocked.fiber_mode
        self.fiber_rows = [row_of_fiber(b.splatt) for b in blocked.blocks]
        self._stats: list[BlockStats] | None = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            self._stats = [
                BlockStats.from_splatt(block.splatt, block.coords)
                for block in self.blocked.blocks
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Global rows with fibers in any block (block-local fiber rows
        shifted by each block's output-mode lower bound)."""
        rows = [
            fr + block.bounds[self.mode][0]
            for fr, block in zip(self.fiber_rows, self.blocked.blocks)
        ]
        if not rows:
            return ()
        return intervals_from_rows(np.unique(np.concatenate(rows)))


def resolve_grid(
    tensor: COOTensor,
    grid: "BlockGrid | None",
    block_counts: "Sequence[int] | None",
) -> BlockGrid:
    """Build the block grid from either an explicit grid or per-mode counts."""
    if grid is not None and block_counts is not None:
        raise ConfigError("give grid or block_counts, not both")
    if grid is None:
        if block_counts is None:
            raise ConfigError(
                "the MB kernel needs a grid or block_counts (e.g. (1, 10, 5))"
            )
        grid = BlockGrid(tensor.shape, block_counts)
    return grid


class MultiDimBlockedKernel(Kernel):
    """MB: Algorithm 1 per block of a mode-space grid."""

    name = "mb"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        grid: "BlockGrid | None" = None,
        block_counts: "Sequence[int] | None" = None,
        inner_mode: "int | None" = None,
        **params: object,
    ) -> MBPlan:
        reject_unknown_params(
            self.name, params, known=("grid", "block_counts", "inner_mode")
        )
        grid = resolve_grid(tensor, grid, block_counts)
        return MBPlan(partition_coo(tensor, grid, mode, inner_mode))

    def execute(
        self,
        plan: MBPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        B = factors[plan.inner_mode]
        C = factors[plan.fiber_mode]
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        for block, fiber_rows in zip(plan.blocked.blocks, plan.fiber_rows):
            out_lo, out_hi = block.bounds[plan.mode]
            in_lo, in_hi = block.bounds[plan.inner_mode]
            fb_lo, fb_hi = block.bounds[plan.fiber_mode]
            execute_splatt_into(
                block.splatt,
                fiber_rows,
                B[in_lo:in_hi],
                C[fb_lo:fb_hi],
                A[out_lo:out_hi],
                self.scratch_elems,
            )
        return A


register_kernel(MultiDimBlockedKernel())
