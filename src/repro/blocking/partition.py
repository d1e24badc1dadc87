"""Reorganizing a COO tensor into contiguous blocks (Section V-A).

Multi-dimensional blocking requires "the nonzeros in each block [to be]
stored continuously"; the paper stresses that this rearrangement is cheap
(one sort) compared to graph-partitioning reorderings and is amortized
over the 10-1000s of CPD iterations.  :func:`partition_coo` performs that
rearrangement literally as one sort: a single
:func:`~repro.tensor.coo.lex_order` over (block rank in the MB loop order,
coordinates along the tree's mode order) leaves every block contiguous
and sorted inside, so cutting at block changes and compressing each run
into a CSF tree yields the blocks the tree kernels execute.

Block trees hold **local** indices (global minus the block's lower
bounds); execution slices each factor matrix to the block's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.tensor.coo import COOTensor, lex_order
from repro.tensor.csf import CSFTensor
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class TensorBlock:
    """One block: its grid coordinates, index bounds, and the
    CSF-compressed sub-tensor.

    Tree indices are **local** to the block (global minus the lower bound
    of each mode), so per-block pointer arrays are sized to the block
    rather than the full mode — execution indexes factor matrices through
    contiguous slices ``factor[lo:hi]``.
    """

    coords: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]
    tree: CSFTensor


def partition_coo(
    tensor: COOTensor, grid: BlockGrid, mode_order: Sequence[int]
) -> list[TensorBlock]:
    """Reorganize a COO tensor into CSF-compressed blocks.

    Non-empty blocks are emitted in the MB loop order: block coordinates
    of ``mode_order[0]`` (the output mode, so consecutive blocks share
    their slice of ``A``) outermost, the other modes following
    ``mode_order``.  Each block is compressed straight from the one sort
    (see the module docstring) into a tree ordered by ``mode_order``,
    with a block-sized shape.  A one-block grid yields that block, empty
    or not, over the tensor itself.
    """
    if grid.shape != tensor.shape:
        raise ShapeError(
            f"grid shape {grid.shape} does not match tensor shape {tensor.shape}"
        )
    mode_order = tuple(int(m) for m in mode_order)
    if grid.n_blocks == 1:
        # One block covering the tensor: no block ids and no gather (the
        # unblocked kernels' path).
        coords = (0,) * grid.order
        return [
            TensorBlock(
                coords, grid.block_bounds(coords),
                CSFTensor.from_coo(tensor, mode_order),
            )
        ]
    if sorted(mode_order) != list(range(tensor.order)):
        raise ShapeError(f"{mode_order} is not a permutation of modes")

    # Block rank in the MB loop order.
    rank = grid.block_of(tensor.indices, mode_order)
    sizes = np.bincount(rank, minlength=grid.n_blocks)
    ends = np.cumsum(sizes)
    cols = [tensor.indices[:, m] for m in mode_order]
    order = lex_order(
        [rank, *cols], [grid.n_blocks, *(tensor.shape[m] for m in mode_order)]
    )
    del rank
    cols = [c[order] for c in cols]
    vals = tensor.values[order]
    del order

    loop_counts = [grid.block_counts[m] for m in mode_order]
    blocks: list[TensorBlock] = []
    for r in np.flatnonzero(sizes):
        st, en = int(ends[r] - sizes[r]), int(ends[r])
        loop_coords = np.unravel_index(r, loop_counts)
        coords = tuple(
            int(loop_coords[mode_order.index(m)]) for m in range(grid.order)
        )
        bounds = grid.block_bounds(coords)
        # Re-base the block's run of the sorted copies to local indices.
        local = [col[st:en] for col in cols]
        for col, m in zip(local, mode_order):
            col -= bounds[m][0]
        tree = CSFTensor._from_sorted(
            tuple(hi - lo for lo, hi in bounds), mode_order, local, vals[st:en]
        )
        blocks.append(TensorBlock(coords, bounds, tree))
    return blocks
