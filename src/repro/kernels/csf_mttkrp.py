"""MTTKRP over CSF trees: Algorithm 1 of the paper, its blocked presets,
and their N-mode extension.

For a 3-mode tensor in the SPLATT orientation
(:func:`~repro.tensor.csf.splatt_order`) the tree's levels are output
rows, fibers (nonzeros sharing the output row ``i`` and fiber coordinate
``k``) and nonzeros, and Algorithm 1 is, for every fiber:

1. accumulate ``s[r] += val * B[j][r]`` over the fiber's nonzeros
   (lines 5-7 of Algorithm 1), then
2. add ``s * C[k]`` into ``A[i]`` (lines 8-9),

saving ``R`` flops and an ``A``/``C`` row access per nonzero beyond the
first in each fiber, relative to the COO kernel.  An N-mode tree runs
the same steps with one more per extra level (Smith & Karypis's CSF
kernel): its leaves are summed into their parents, then each internal
level is scaled by its factor rows and summed into its parents, and the
level below the root is summed into the output rows.

MB (Section V-A), RankB (Section V-B, Algorithm 2) and MB+RankB
(Figure 3b) run that pass once per (rank strip, mode block): strips
outermost, blocks inside, each pass gathering from and accumulating into
column views of the factors.  SPLATT is the case with one block and one
strip.  One kernel therefore serves six registry names: ``splatt``,
``mb``, ``rankb`` and ``mb+rankb`` are 3-mode presets in the SPLATT
orientation, and ``csf`` and ``csf-blocked`` take any order and mode
order (the paper's "trivially extended to higher-order data").  A name
only fixes which of the grid, strip and ordering parameters ``prepare``
takes.

Each pass runs in cache-sized *chunks* of whole output rows, counted in
nodes of the last internal level (fibers for 3 modes; ``fibers x R <=
scratch_elems``), and each chunk is three kinds of compiled CSR product
(:mod:`repro.kernels.base`):

1. the leaves into their parents, ``S @ B`` with ``S = (vals,
   leaf_fids, fptr)`` (:func:`~repro.kernels.base.fiber_sums`), which
   reads the plan's own arrays, so no ``nnz x R`` product is ever
   materialized;
2. for each internal level on the way up, a NumPy gather scaling its
   node sums by the level's factor rows, then a unit-value CSR product
   adding children into parents
   (:func:`~repro.kernels.base.segment_sums_into`);
3. line 9: the scaled sums of the level below the root added into their
   rows of ``A`` by a unit-value CSR product over a dense row pointer
   (SPLATT's ``row_ptr``) built once per plan, straight into ``A``, with
   no temporary and no scatter.

The compiled calls release the GIL.  A node's sum is taken in child
order, and each row of ``A`` adds its blocks in order and each block's
nodes in order, whatever the chunking; a row never spans two chunks (a
row larger than the budget is one chunk), so the output is bitwise the
same for any scratch budget.
"""

from __future__ import annotations

import copy
from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid, resolve_grid
from repro.blocking.partition import TensorBlock, partition_coo
from repro.blocking.rank import RankBlocking, resolve_rank_blocking
from repro.kernels.base import (
    DEFAULT_SCRATCH_ELEMS,
    BlockStats,
    Kernel,
    Plan,
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
from repro.tensor.csf import CSFTensor, splatt_order
from repro.util.errors import ConfigError, ShapeError
from repro.util.validation import INDEX_DTYPE, check_mode

#: ``prepare`` parameters of the presets that take a mode grid (MB) and of
#: those that take rank strips (RankB).  ``csf-blocked`` takes the first
#: two strip parameters, optionally.
GRID_PARAMS = ("grid", "block_counts")
STRIP_PARAMS = ("rank_blocking", "n_rank_blocks", "block_cols")


def seal_tree(tree: CSFTensor, where: str) -> None:
    """:func:`~repro.kernels.base.seal_fibers` over a tree's leaf level,
    the CSR matrix :func:`~repro.kernels.base.fiber_sums` reads, and
    :func:`~repro.kernels.base.seal_pointers` over the pointers of the
    levels above it, which :func:`~repro.kernels.base.segment_sums_into`
    reads."""
    leaf_mode = tree.mode_order[-1]
    seal_fibers(
        tree.levels[-1].fptr, tree.leaf_fids, tree.vals, tree.shape[leaf_mode], where
    )
    for parent, child in zip(tree.levels, tree.levels[1:]):
        seal_pointers(parent.fptr, child.n_nodes, where)


def row_pointers(tree: CSFTensor) -> list[np.ndarray]:
    """Dense pointers from every output row to its first node at each
    level from 1 to the last internal one (level 0 for a 2-mode tree).

    The first is SPLATT's ``row_ptr``, the root level written out per
    row; each next one follows it through a level's ``fptr``.
    """
    root = tree.levels[0]
    n_rows = tree.shape[tree.mode_order[0]]
    per_row = np.zeros(n_rows, dtype=INDEX_DTYPE)
    per_row[root.fids] = np.diff(root.fptr) if tree.order > 2 else 1
    ptrs = [np.zeros(n_rows + 1, dtype=INDEX_DTYPE)]
    np.cumsum(per_row, out=ptrs[0][1:])
    for level in tree.levels[1:-1]:
        ptrs.append(level.fptr[ptrs[-1]])
    return ptrs


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


def reduce_levels(
    tree: CSFTensor,
    acc: np.ndarray,
    factors: Sequence[np.ndarray],
    stop: int,
    spans: Sequence[tuple[int, int]],
    unit: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Carry node sums of the last internal level up the tree to level
    ``stop``: each level below ``stop`` scales its sums ``acc`` (a fresh
    array, scaled in place) by its factor rows, and its children are
    added into their parents by a compiled segment sum.

    ``spans[l]`` is the ``(first, end)`` range of level ``l``'s nodes
    that the sums cover; returns the sums of level ``stop``'s nodes.
    """
    levels = tree.levels
    for lvl in range(len(levels) - 1, stop, -1):
        n0, n1 = spans[lvl]
        p0, p1 = spans[lvl - 1]
        acc *= factors[tree.mode_order[lvl]][levels[lvl].fids[n0:n1]]
        up = np.zeros((p1 - p0, acc.shape[1]), dtype=acc.dtype)
        segment_sums_into(levels[lvl - 1].fptr[p0 : p1 + 1] - n0, acc, up, unit)
        acc = up
    return acc


def execute_block_into(
    tree: CSFTensor,
    row_ptrs: Sequence[np.ndarray],
    factors: Sequence[np.ndarray],
    A: np.ndarray,
    scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
) -> None:
    """Run the tree MTTKRP for one block, accumulating into ``A``.

    ``factors`` is indexed by original mode and, like ``A``, by the
    block's local coordinates: callers pass row views for a block and
    column views for a rank strip; the output mode's entry is unused.
    ``row_ptrs`` is the block's :func:`row_pointers`.
    """
    if tree.nnz == 0:
        return
    levels, mode_order = tree.levels, tree.mode_order
    # The level line 9 sums into rows: the fibers below the root (the
    # root itself in a 2-mode tree).
    top = min(1, tree.order - 2)
    rows = row_chunks(row_ptrs[-1], max(1, scratch_elems // max(A.shape[1], 1)))
    # Node boundaries of the chunks at every level a row pointer reaches.
    bounds = [ptr[rows].tolist() for ptr in row_ptrs]
    fibers = bounds[-1]
    unit = unit_csr(max(f1 - f0 for f0, f1 in zip(fibers, fibers[1:])), A.dtype)
    leaf_mode = mode_order[-1]
    # Lines 5-7: the compiled per-fiber sums of val * B[j], one chunk of
    # whole rows at a time.
    chunks = fiber_sums(
        levels[-1].fptr, tree.leaf_fids, tree.vals,
        factors[leaf_mode], tree.shape[leaf_mode], fibers,
    )
    for c, (r0, r1, (_, _, acc)) in enumerate(zip(rows, rows[1:], chunks)):
        # Node ranges of this chunk per level; the root's is never read.
        spans = [(0, 0)] * top + [(b[c], b[c + 1]) for b in bounds]
        acc = reduce_levels(tree, acc, factors, 1, spans, unit)
        n0, n1 = spans[top]
        if top:
            # Line 8: scale each fiber by its C row.
            acc *= factors[mode_order[1]][levels[1].fids[n0:n1]]
        # Line 9: add the chunk's fibers into their rows of A, compiled
        # and in place.
        segment_sums_into(row_ptrs[0][r0 : r1 + 1] - n0, acc, A[r0:r1], unit)


class CSFPlan(Plan):
    """Prepared tree MTTKRP: the tensor as one local CSF tree per block
    (one block when unblocked), each block's dense row pointers, and the
    rank blocking (``None`` for one strip)."""

    def __init__(
        self,
        kernel_name: str,
        mode: int,
        mode_order: tuple[int, ...],
        grid: BlockGrid,
        blocks: list[TensorBlock],
        rank_blocking: "RankBlocking | None" = None,
    ) -> None:
        self.kernel_name = kernel_name
        self.shape = grid.shape
        self.mode = mode
        self.mode_order = mode_order
        # For 3-mode trees the SPLATT naming applies directly; for higher
        # orders "inner" is the leaf mode and "fiber" the level above it.
        self.inner_mode = mode_order[-1]
        self.fiber_mode = mode_order[-2]
        self.grid = grid
        self.blocks = blocks
        self.rank_blocking = rank_blocking
        #: :func:`row_pointers` of every block, sealed like the trees.
        self.row_ptrs: list[list[np.ndarray]] = []
        for block in blocks:
            tree = block.tree
            where = f"block {block.coords}, mode {self.inner_mode}"
            seal_tree(tree, where)
            ptrs = row_pointers(tree)
            for ptr, level in zip(ptrs, tree.levels[min(1, tree.order - 2) :]):
                seal_pointers(ptr, level.n_nodes, where)
            self.row_ptrs.append(ptrs)
        self._stats: "list[BlockStats] | None" = None

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            self._stats = [
                BlockStats.from_tree(block.tree, block.coords) for block in self.blocks
            ]
        return self._stats

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Only root-level rows (rows owning a subtree) are written:
        each block's root rows, shifted to global output coordinates."""
        rows = [
            block.tree.levels[0].fids + block.bounds[self.mode][0]
            for block in self.blocks
        ]
        if not rows:
            return ()
        return intervals_from_rows(np.unique(np.concatenate(rows)))

    def with_strips(
        self, kernel_name: str, rank_blocking: "RankBlocking | None"
    ) -> "CSFPlan":
        """This partition under another rank blocking.  Strips only
        re-slice columns, so the blocks, row pointers and block stats
        are shared rather than rebuilt."""
        self.block_stats()
        plan = copy.copy(self)
        plan.kernel_name = kernel_name
        plan.rank_blocking = rank_blocking
        return plan


class CSFKernel(Kernel):
    """The tree MTTKRP per (rank strip, mode block), one instance per
    registry name.

    ``grid=True`` makes ``prepare`` take, and require, a mode grid
    (:data:`GRID_PARAMS`); ``strips=True`` does the same for rank strips
    (:data:`STRIP_PARAMS`).  Without them a plan has one block covering
    the tensor and one ``(0, R)`` strip.  ``any_order=True`` takes
    tensors of any order and a ``mode_order``, and with a grid also
    optional strips; otherwise the tensor must be 3-mode and the tree
    takes the SPLATT orientation.
    """

    name = "splatt"

    def __init__(
        self,
        name: "str | None" = None,
        *,
        grid: bool = False,
        strips: bool = False,
        any_order: bool = False,
        scratch_elems: int = DEFAULT_SCRATCH_ELEMS,
    ) -> None:
        if name is not None:
            self.name = name
        self.takes_grid = grid
        self.takes_strips = strips
        self.any_order = any_order
        self.scratch_elems = int(scratch_elems)
        params: list[str] = ["mode_order"] if any_order else []
        if grid:
            params += GRID_PARAMS
        if strips:
            params += STRIP_PARAMS
        elif grid and any_order:
            params += STRIP_PARAMS[:2]
        #: The ``prepare`` parameters this preset accepts.
        self.params = tuple(params)

    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> CSFPlan:
        """Build the trees with ``mode`` at the root.

        For the ``csf`` presets ``mode_order`` optionally fixes the full
        ordering (its first entry must be ``mode``); the default orders
        the remaining modes by increasing length, SPLATT's heuristic for
        maximizing compression.
        """
        reject_unknown_params(
            self.name,
            {k: v for k, v in params.items() if k not in self.params},
            self.params,
        )
        mode = check_mode(mode, tensor.order)
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
        mode_order = self._mode_order(tensor, mode, params.get("mode_order"))
        return CSFPlan(
            self.name, mode, mode_order, grid,
            partition_coo(tensor, grid, mode_order), rank_blocking,
        )

    def _mode_order(
        self, tensor: COOTensor, mode: int, mode_order: object
    ) -> tuple[int, ...]:
        if not self.any_order:
            if tensor.order != 3:
                raise ShapeError(
                    f"kernel {self.name!r} is 3-mode only (use csf for order "
                    f"{tensor.order})"
                )
            return splatt_order(mode)
        if mode_order is None:
            others = sorted(
                (m for m in range(tensor.order) if m != mode),
                key=lambda m: tensor.shape[m],
            )
            return (mode, *others)
        mode_order = tuple(int(m) for m in mode_order)  # type: ignore[attr-defined]
        if mode_order[0] != mode:
            raise ConfigError(
                f"mode_order {mode_order} must start with the output mode {mode}"
            )
        return mode_order

    def run(
        self, plan: CSFPlan, factors: Sequence[np.ndarray], A: np.ndarray
    ) -> None:
        mode = plan.mode
        for lo, hi in plan.strips(A.shape[1]):
            for block, row_ptrs in zip(plan.blocks, plan.row_ptrs):
                local = [
                    None if f is None else f[b_lo:b_hi, lo:hi]
                    for f, (b_lo, b_hi) in zip(factors, block.bounds)
                ]
                out_lo, out_hi = block.bounds[mode]
                execute_block_into(
                    block.tree, row_ptrs, local, A[out_lo:out_hi, lo:hi],
                    self.scratch_elems,
                )


register_kernel(CSFKernel())
register_kernel(CSFKernel("mb", grid=True))
register_kernel(CSFKernel("rankb", strips=True))
register_kernel(CSFKernel("mb+rankb", grid=True, strips=True))
register_kernel(CSFKernel("csf", any_order=True))
register_kernel(CSFKernel("csf-blocked", grid=True, any_order=True))
