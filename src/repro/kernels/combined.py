"""Combined MB + RankB MTTKRP (Figure 3b).

The paper's best configuration: rank strips outermost (Algorithm 2's
``while rr < R`` loop), multi-dimensional blocks inside.  Each (strip,
block) pair runs Algorithm 1 on a small sub-tensor against thin factor
slices — the working set is shrunk along both the row and column axes of
the factor matrices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.blocking.rank import RankBlocking
from repro.kernels.base import (
    DEFAULT_SCRATCH_ELEMS,
    BlockStats,
    Kernel,
    Plan,
    alloc_output,
    check_factors,
    factor_dtype,
    register_kernel,
    reject_unknown_params,
)
from repro.kernels.blocked import MBPlan, resolve_grid
from repro.kernels.rankblocked import resolve_rank_blocking
from repro.blocking.partition import partition_coo
from repro.kernels.splatt_mttkrp import execute_splatt_into
from repro.tensor.coo import COOTensor


class CombinedPlan(Plan):
    """Prepared MB+RankB MTTKRP."""

    kernel_name = "mb+rankb"

    def __init__(self, mb_plan: MBPlan, rank_blocking: RankBlocking) -> None:
        self.mb_plan = mb_plan
        self.shape = mb_plan.shape
        self.mode = mb_plan.mode
        self.inner_mode = mb_plan.inner_mode
        self.fiber_mode = mb_plan.fiber_mode
        self.rank_blocking = rank_blocking

    def block_stats(self) -> list[BlockStats]:
        return self.mb_plan.block_stats()

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """The full output range: each strip pass stores its whole
        ``A_s`` scratch column-block back (see :class:`RankBPlan`)."""
        return ((0, int(self.shape[self.mode])),)


class CombinedBlockedKernel(Kernel):
    """MB+RankB: rank strips outermost, mode blocks inside."""

    name = "mb+rankb"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        grid: "BlockGrid | None" = None,
        block_counts: "Sequence[int] | None" = None,
        inner_mode: "int | None" = None,
        rank_blocking: "RankBlocking | None" = None,
        n_rank_blocks: "int | None" = None,
        block_cols: "int | None" = None,
        **params: object,
    ) -> CombinedPlan:
        reject_unknown_params(
            self.name,
            params,
            known=(
                "grid",
                "block_counts",
                "inner_mode",
                "rank_blocking",
                "n_rank_blocks",
                "block_cols",
            ),
        )
        grid = resolve_grid(tensor, grid, block_counts)
        mb_plan = MBPlan(partition_coo(tensor, grid, mode, inner_mode))
        return CombinedPlan(
            mb_plan,
            resolve_rank_blocking(rank_blocking, n_rank_blocks, block_cols),
        )

    def execute(
        self,
        plan: CombinedPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        B = factors[plan.inner_mode]
        C = factors[plan.fiber_mode]
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        mb = plan.mb_plan
        for lo, hi in plan.rank_blocking.strips(rank):
            B_s = np.ascontiguousarray(B[:, lo:hi])
            C_s = np.ascontiguousarray(C[:, lo:hi])
            A_s = np.zeros((A.shape[0], hi - lo), dtype=A.dtype)
            for block, fiber_rows in zip(mb.blocked.blocks, mb.fiber_rows):
                out_lo, out_hi = block.bounds[plan.mode]
                in_lo, in_hi = block.bounds[plan.inner_mode]
                fb_lo, fb_hi = block.bounds[plan.fiber_mode]
                execute_splatt_into(
                    block.splatt,
                    fiber_rows,
                    B_s[in_lo:in_hi],
                    C_s[fb_lo:fb_hi],
                    A_s[out_lo:out_hi],
                    self.scratch_elems,
                )
            A[:, lo:hi] = A_s
        return A


register_kernel(CombinedBlockedKernel())
