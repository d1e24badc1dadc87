"""Rank-blocked MTTKRP (Section V-B, Algorithm 2).

The factor matrices are strip-mined along the rank: each strip of
``BS_RankB`` columns is an independent MTTKRP over thinner factors, so
more *rows* fit in cache.  Inside a strip the accumulator is register
blocked (``NRegB`` columns at a time) — a property of the generated
machine code that NumPy cannot express, so here it changes only the
modeled load-unit pressure (:mod:`repro.machine.loadunits`); numerically
each strip is one Algorithm 1 pass over column slices.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
from repro.kernels.splatt_mttkrp import SplattPlan, execute_splatt_into
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError


class RankBPlan(Plan):
    """Prepared rank-blocked MTTKRP: a SPLATT plan plus the strip config."""

    kernel_name = "rankb"

    def __init__(self, base: SplattPlan, rank_blocking: RankBlocking) -> None:
        self.base = base
        self.shape = base.shape
        self.mode = base.mode
        self.inner_mode = base.inner_mode
        self.fiber_mode = base.fiber_mode
        self.rank_blocking = rank_blocking

    def block_stats(self) -> list[BlockStats]:
        return self.base.block_stats()

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """The full output range: each strip pass stores its whole
        ``A_s`` scratch column-block back, touching every row (fiberless
        rows receive the zeros they already hold)."""
        return ((0, int(self.shape[self.mode])),)


def resolve_rank_blocking(
    rank_blocking: "RankBlocking | None",
    n_rank_blocks: "int | None",
    block_cols: "int | None",
) -> RankBlocking:
    """Build a :class:`RankBlocking` from whichever spelling the caller used."""
    given = sum(x is not None for x in (rank_blocking, n_rank_blocks, block_cols))
    if given == 0:
        raise ConfigError(
            "the RankB kernel needs rank_blocking, n_rank_blocks, or block_cols"
        )
    if given > 1:
        raise ConfigError(
            "give exactly one of rank_blocking / n_rank_blocks / block_cols"
        )
    if rank_blocking is not None:
        return rank_blocking
    if n_rank_blocks is not None:
        return RankBlocking(n_blocks=int(n_rank_blocks))
    return RankBlocking(block_cols=int(block_cols))


class RankBlockedKernel(Kernel):
    """RankB: independent MTTKRP per rank strip (Algorithm 2)."""

    name = "rankb"

    def __init__(self, scratch_elems: int = DEFAULT_SCRATCH_ELEMS) -> None:
        self.scratch_elems = int(scratch_elems)

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        rank_blocking: "RankBlocking | None" = None,
        n_rank_blocks: "int | None" = None,
        block_cols: "int | None" = None,
        **params: object,
    ) -> RankBPlan:
        from repro.kernels.splatt_mttkrp import SplattKernel

        reject_unknown_params(
            self.name,
            params,
            known=("rank_blocking", "n_rank_blocks", "block_cols"),
        )
        base = SplattKernel(self.scratch_elems).prepare(tensor, mode)
        return RankBPlan(
            base, resolve_rank_blocking(rank_blocking, n_rank_blocks, block_cols)
        )

    def execute(
        self,
        plan: RankBPlan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        B = factors[plan.inner_mode]
        C = factors[plan.fiber_mode]
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        splatt = plan.base.splatt
        for lo, hi in plan.rank_blocking.strips(rank):
            # Strips are contiguous column ranges; copying them (rather than
            # slicing views) mirrors the paper's re-stacked strip layout and
            # keeps the inner gathers on contiguous rows.
            B_s = np.ascontiguousarray(B[:, lo:hi])
            C_s = np.ascontiguousarray(C[:, lo:hi])
            A_s = np.zeros((A.shape[0], hi - lo), dtype=A.dtype)
            execute_splatt_into(
                splatt, plan.base.fiber_rows, B_s, C_s, A_s, self.scratch_elems
            )
            A[:, lo:hi] = A_s
        return A


register_kernel(RankBlockedKernel())
