"""The SPLATT MTTKRP family — Algorithm 1 of the paper and its blocked
variants.

For every fiber (group of nonzeros sharing the output row ``i`` and fiber
coordinate ``k``) Algorithm 1:

1. accumulates ``s[r] += val * B[j][r]`` over the fiber's nonzeros
   (lines 5-7 of Algorithm 1), then
2. adds ``s * C[k]`` into ``A[i]`` (lines 8-9),

saving ``R`` flops and an ``A``/``C`` row access per nonzero beyond the
first in each fiber, relative to the COO kernel.

MB (Section V-A), RankB (Section V-B, Algorithm 2) and MB+RankB
(Figure 3b) all run Algorithm 1 once per (rank strip, mode block): strips
outermost, blocks inside, each pass gathering from and accumulating into
column views of the factors.  SPLATT is the case with one block and one
strip.  One kernel therefore serves all four registry names; a name only
fixes which of the grid and strip parameters ``prepare`` takes.

Lines 5-7 and 9 run as compiled code, two CSR products per chunk
(:mod:`repro.kernels.base`).  Lines 5-7 are ``S @ B`` with ``S = (vals,
jidx, fiber_ptr)`` (:func:`~repro.kernels.base.fiber_sums`), which reads
the plan's own arrays, so no ``nnz x R`` product is ever materialized.
Line 8 scales each fiber sum by its ``C`` row (a NumPy gather), and line
9 adds the fibers into their rows of ``A`` as a unit-value CSR product
over ``row_ptr`` (:func:`~repro.kernels.base.segment_sums_into`),
straight into ``A``, with no temporary and no scatter.  Both compiled
calls release the GIL.  The fiber sums come in cache-sized *chunks* of
whole output rows, counted in fibers (``fibers x R <= scratch_elems``).
A fiber's sum is taken in nonzero order, and each row of ``A`` adds its
blocks in order and each block's fibers in order, whatever the chunking;
a row never spans two chunks (a row larger than the budget is one
chunk), so the output is bitwise the same for any scratch budget.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid, resolve_grid
from repro.blocking.partition import BlockedTensor, partition_coo
from repro.blocking.rank import RankBlocking, resolve_rank_blocking
from repro.kernels.base import (
    DEFAULT_SCRATCH_ELEMS,
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
from repro.tensor.splatt import SplattTensor
from repro.util.errors import ConfigError
from repro.util.validation import INDEX_DTYPE

#: ``prepare`` parameters of the presets that take a mode grid (MB) and of
#: those that take rank strips (RankB).
GRID_PARAMS = ("grid", "block_counts", "inner_mode")
STRIP_PARAMS = ("rank_blocking", "n_rank_blocks", "block_cols")


def row_of_fiber(splatt: SplattTensor) -> np.ndarray:
    """Output-row index of every fiber (length ``F``)."""
    return np.repeat(
        np.arange(splatt.n_rows, dtype=INDEX_DTYPE), splatt.fibers_per_row()
    )


def row_chunks(row_ptr: np.ndarray, max_fibers: int) -> list[int]:
    """Row boundaries of consecutive runs of whole output rows, each run
    holding at most ``max_fibers`` fibers (a heavier row is a run of its
    own); the last run ends at the last row that owns a fiber."""
    n_fibers = int(row_ptr[-1])
    bounds = [0]
    while row_ptr[bounds[-1]] < n_fibers:
        f0 = int(row_ptr[bounds[-1]])
        r1 = int(np.searchsorted(row_ptr, f0 + max_fibers, "right")) - 1
        if row_ptr[r1] <= f0:
            r1 = int(np.searchsorted(row_ptr, f0, "right"))
        bounds.append(r1)
    return bounds


def execute_splatt_into(
    splatt: SplattTensor,
    B: np.ndarray,
    C: np.ndarray,
    A: np.ndarray,
    scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
) -> None:
    """Run Algorithm 1 for one SPLATT-compressed (sub-)tensor, accumulating
    into ``A``.  ``A``, ``B`` and ``C`` are indexed by the sub-tensor's
    local coordinates; callers pass row views for a block and column
    views for a rank strip.
    """
    if splatt.n_fibers == 0:
        return
    row_ptr = splatt.row_ptr
    rows = row_chunks(row_ptr, max(1, scratch_elems // max(B.shape[1], 1)))
    fibers = row_ptr[rows].tolist()
    unit = unit_csr(max(f1 - f0 for f0, f1 in zip(fibers, fibers[1:])), B.dtype)
    # Lines 5-7: the compiled per-fiber sums of val * B[j], one chunk of
    # whole rows at a time.
    chunks = fiber_sums(
        splatt.fiber_ptr, splatt.jidx, splatt.vals, B, splatt.inner_extent, fibers
    )
    for r0, r1, (f0, f1, fiber_acc) in zip(rows, rows[1:], chunks):
        # Line 8: scale each fiber by its C row.  Line 9: add the chunk's
        # fibers into their rows of A, compiled and in place.
        fiber_acc *= C[splatt.fiber_kidx[f0:f1]]
        segment_sums_into(row_ptr[r0 : r1 + 1] - f0, fiber_acc, A[r0:r1], unit)


class SplattPlan(Plan):
    """Prepared SPLATT-family MTTKRP: the tensor as SPLATT-compressed
    blocks (one block when unblocked), the global output row of every
    fiber, and the rank blocking (``None`` for one strip)."""

    def __init__(
        self,
        kernel_name: str,
        blocked: BlockedTensor,
        rank_blocking: "RankBlocking | None" = None,
    ) -> None:
        self.kernel_name = kernel_name
        self.blocked = blocked
        self.shape = blocked.shape
        self.mode = blocked.output_mode
        self.inner_mode = blocked.inner_mode
        self.fiber_mode = blocked.fiber_mode
        self.rank_blocking = rank_blocking
        for block in blocked.blocks:
            sp = block.splatt
            where = f"block {block.coords}, mode {self.inner_mode}"
            seal_fibers(sp.fiber_ptr, sp.jidx, sp.vals, sp.inner_extent, where)
            seal_pointers(sp.row_ptr, sp.n_fibers, where)
        rows = [
            row_of_fiber(block.splatt) + block.bounds[self.mode][0]
            for block in blocked.blocks
        ]
        #: Global output row of every fiber, block after block.
        self.fiber_rows = (
            np.concatenate(rows) if rows else np.empty(0, dtype=INDEX_DTYPE)
        )
        self._stats: list[BlockStats] | None = None

    @property
    def splatt(self) -> SplattTensor:
        """The compressed tensor of a one-block plan."""
        blocks = self.blocked.blocks
        if len(blocks) != 1:
            raise AttributeError(
                f"a {len(blocks)}-block plan has no single SPLATT tensor; "
                "iterate plan.blocked.blocks"
            )
        return blocks[0].splatt

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            self._stats = [
                BlockStats.from_splatt(block.splatt, block.coords)
                for block in self.blocked.blocks
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only rows that own at least one fiber are ever written."""
        return intervals_from_rows(np.unique(self.fiber_rows))

    def with_strips(
        self, kernel_name: str, rank_blocking: "RankBlocking | None"
    ) -> "SplattPlan":
        """This partition under another rank blocking.  Strips only
        re-slice columns, so the blocks, row maps and block stats are
        shared rather than rebuilt."""
        self.block_stats()
        plan = copy.copy(self)
        plan.kernel_name = kernel_name
        plan.rank_blocking = rank_blocking
        return plan


class SplattKernel(Kernel):
    """Algorithm 1 per (rank strip, mode block), one instance per registry
    name.

    ``grid=True`` makes ``prepare`` take, and require, a mode grid
    (:data:`GRID_PARAMS`); ``strips=True`` does the same for rank strips
    (:data:`STRIP_PARAMS`).  Without them a plan has one block covering
    the tensor and one ``(0, R)`` strip.
    """

    name = "splatt"

    def __init__(
        self,
        name: "str | None" = None,
        *,
        grid: bool = False,
        strips: bool = False,
        scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
    ) -> None:
        if name is not None:
            self.name = name
        self.takes_grid = grid
        self.takes_strips = strips
        self.scratch_elems = int(scratch_elems)

    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> SplattPlan:
        known = (GRID_PARAMS if self.takes_grid else ()) + (
            STRIP_PARAMS if self.takes_strips else ()
        )
        reject_unknown_params(
            self.name, {k: v for k, v in params.items() if k not in known}, known
        )
        grid = resolve_grid(
            tensor.shape, params.get("grid"), params.get("block_counts")
        )
        if grid is None:
            if self.takes_grid:
                raise ConfigError(
                    f"kernel {self.name!r} needs a grid or block_counts "
                    "(e.g. (1, 10, 5))"
                )
            grid = BlockGrid(tensor.shape, (1,) * tensor.order)
        rank_blocking = resolve_rank_blocking(
            *(params.get(k) for k in STRIP_PARAMS)
        )
        if rank_blocking is None and self.takes_strips:
            raise ConfigError(
                f"kernel {self.name!r} needs rank_blocking, n_rank_blocks, "
                "or block_cols"
            )
        blocked = partition_coo(tensor, grid, mode, params.get("inner_mode"))
        return SplattPlan(self.name, blocked, rank_blocking)

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
        for lo, hi in plan.strips(rank):
            for block in plan.blocked.blocks:
                in_lo, in_hi = block.bounds[plan.inner_mode]
                fb_lo, fb_hi = block.bounds[plan.fiber_mode]
                out_lo, out_hi = block.bounds[plan.mode]
                execute_splatt_into(
                    block.splatt,
                    B[in_lo:in_hi, lo:hi],
                    C[fb_lo:fb_hi, lo:hi],
                    A[out_lo:out_hi, lo:hi],
                    self.scratch_elems,
                )
        return A


register_kernel(SplattKernel())
register_kernel(SplattKernel("mb", grid=True))
register_kernel(SplattKernel("rankb", strips=True))
register_kernel(SplattKernel("mb+rankb", grid=True, strips=True))
