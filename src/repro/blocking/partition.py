"""Reorganizing a COO tensor into contiguous blocks (Section V-A).

Multi-dimensional blocking requires "the nonzeros in each block [to be]
stored continuously"; the paper stresses that this rearrangement is cheap
(one sort) compared to graph-partitioning reorderings and is amortized
over the 10-1000s of CPD iterations.  :func:`partition_coo` performs that
rearrangement literally as one sort: a single
:func:`~repro.tensor.coo.lex_order` over (block rank in the MB loop order,
output, fiber, inner coordinate) leaves every block contiguous and sorted
inside, so cutting at block changes and compressing each run into the
SPLATT layout yields the :class:`BlockedTensor` the MB kernels execute.

Block sub-tensors hold **local** indices (global minus the block's lower
bounds); execution slices each factor matrix to the block's bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.tensor.coo import COOTensor, lex_order
from repro.tensor.csf import CSFTensor
from repro.tensor.splatt import SplattTensor, orientation
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class TensorBlock:
    """One block: its grid coordinates, index bounds, and the
    SPLATT-compressed sub-tensor.

    Sub-tensor indices are **local** to the block (global minus the lower
    bound of each mode), so per-block pointer arrays are sized to the block
    rather than the full mode — execution indexes factor matrices through
    contiguous slices ``factor[lo:hi]``.
    """

    coords: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]
    splatt: SplattTensor


class BlockedTensor:
    """A tensor reorganized into SPLATT-compressed blocks."""

    def __init__(
        self,
        grid: BlockGrid,
        blocks: list[TensorBlock],
        output_mode: int,
        inner_mode: int,
        fiber_mode: int,
    ) -> None:
        self.grid = grid
        self.blocks = blocks
        self.output_mode = output_mode
        self.inner_mode = inner_mode
        self.fiber_mode = fiber_mode

    @property
    def shape(self) -> tuple[int, ...]:
        """Mode lengths of the underlying tensor."""
        return self.grid.shape

    @property
    def nnz(self) -> int:
        """Total nonzeros across blocks."""
        return sum(b.splatt.nnz for b in self.blocks)

    @property
    def n_fibers(self) -> int:
        """Total fibers across blocks.  Blocking along the inner mode can
        split fibers, so this is >= the unblocked fiber count."""
        return sum(b.splatt.n_fibers for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        return (
            f"BlockedTensor({self.grid!r}, {len(self.blocks)} non-empty, "
            f"nnz={self.nnz})"
        )


@dataclass(frozen=True)
class NDBlock:
    """One N-mode block: its grid coordinates and index bounds."""

    coords: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]


def partition_coo_nd(
    tensor: COOTensor, grid: BlockGrid, mode_order: Sequence[int]
) -> list[tuple[NDBlock, CSFTensor]]:
    """Reorganize an N-mode COO tensor into CSF-compressed blocks.

    The order-agnostic counterpart of :func:`partition_coo`, for the
    blocked CSF kernel (the paper's "trivially extended to higher-order
    data" claim): one :func:`~repro.tensor.coo.lex_order` over (flat block
    id, coordinates along ``mode_order``) leaves every block contiguous
    and sorted inside, and each run is compressed into a CSF tree with
    local coordinates and a block-sized shape, with no second sort.
    Non-empty blocks are emitted in C order over the grid coordinates; a
    one-block grid yields that block (empty or not) over the tensor
    itself.
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
        block = NDBlock(coords, grid.block_bounds(coords))
        return [(block, CSFTensor.from_coo(tensor, mode_order))]
    flat = grid.block_of(tensor.indices)
    sizes = np.bincount(flat, minlength=grid.n_blocks)
    ends = np.cumsum(sizes)
    cols = [tensor.indices[:, m] for m in mode_order]
    order = lex_order(
        [flat, *cols], [grid.n_blocks, *(tensor.shape[m] for m in mode_order)]
    )
    del flat
    cols = [c[order] for c in cols]
    vals = tensor.values[order]
    del order

    blocks: list[tuple[NDBlock, CSFTensor]] = []
    for r in np.flatnonzero(sizes):
        st, en = int(ends[r] - sizes[r]), int(ends[r])
        coords = grid.block_coords(int(r))
        bounds = grid.block_bounds(coords)
        # Re-base the block's run of the sorted copies to local indices.
        local = [col[st:en] for col in cols]
        for col, m in zip(local, mode_order):
            col -= bounds[m][0]
        csf = CSFTensor._from_sorted(
            tuple(hi - lo for lo, hi in bounds), mode_order, local, vals[st:en]
        )
        blocks.append((NDBlock(coords, bounds), csf))
    return blocks


def partition_coo(
    tensor: COOTensor,
    grid: BlockGrid,
    output_mode: int = 0,
    inner_mode: int | None = None,
) -> BlockedTensor:
    """Reorganize a 3-mode COO tensor into SPLATT-compressed blocks.

    Blocks are emitted in an order that iterates output-mode block
    coordinates outermost (so consecutive blocks share their slice of
    ``A``), then fiber-mode, then inner-mode — the loop order the MB
    kernel uses; each is compressed straight from the one sort (see the
    module docstring).  A one-block grid yields its block even if empty.

    Parameters
    ----------
    tensor: the tensor to reorganize.
    grid: the mode-block grid (``BlockGrid``); its shape must match.
    output_mode / inner_mode: MTTKRP orientation, as in
        :meth:`repro.tensor.splatt.SplattTensor.from_coo`.
    """
    if tensor.order != 3:
        raise ShapeError("multi-dimensional blocking is implemented for 3 modes")
    output_mode, inner_mode, fiber_mode = orientation(output_mode, inner_mode)
    if grid.shape != tensor.shape:
        raise ShapeError(
            f"grid shape {grid.shape} does not match tensor shape {tensor.shape}"
        )
    if grid.n_blocks == 1:
        splatt = SplattTensor.from_coo(tensor, output_mode, inner_mode)
        block = TensorBlock((0, 0, 0), grid.block_bounds((0, 0, 0)), splatt)
        return BlockedTensor(grid, [block], output_mode, inner_mode, fiber_mode)

    # Block rank in the MB loop order: output block outermost, then
    # fiber, then inner.
    loop = (output_mode, fiber_mode, inner_mode)
    loop_counts = [grid.block_counts[m] for m in loop]
    per_mode = np.unravel_index(grid.block_of(tensor.indices), grid.block_counts)
    rank = np.ravel_multi_index([per_mode[m] for m in loop], loop_counts)
    del per_mode  # each nnz-sized temporary goes before the next is made
    sizes = np.bincount(rank, minlength=grid.n_blocks)
    ends = np.cumsum(sizes)
    cols = [tensor.indices[:, m] for m in loop]
    order = lex_order(
        [rank, *cols], [grid.n_blocks, *(tensor.shape[m] for m in loop)]
    )
    del rank
    i, k, j = (c[order] for c in cols)
    vals = tensor.values[order]
    del order

    blocks: list[TensorBlock] = []
    for r in np.flatnonzero(sizes):
        st, en = int(ends[r] - sizes[r]), int(ends[r])
        loop_coords = np.unravel_index(r, loop_counts)
        coords = tuple(int(loop_coords[loop.index(m)]) for m in range(3))
        bounds = grid.block_bounds(coords)
        # Re-base the block's run of the sorted copies to local indices.
        local = [col[st:en] for col in (i, k, j)]
        for col, m in zip(local, loop):
            col -= bounds[m][0]
        splatt = SplattTensor._from_sorted(
            tuple(hi - lo for lo, hi in bounds), output_mode, inner_mode,
            *local, vals[st:en],
        )
        blocks.append(TensorBlock(coords, bounds, splatt))
    return BlockedTensor(grid, blocks, output_mode, inner_mode, fiber_mode)
