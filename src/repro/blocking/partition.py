"""Reorganizing a COO tensor into contiguous blocks (Section V-A).

Multi-dimensional blocking requires "the nonzeros in each block [to be]
stored continuously"; the paper stresses that this rearrangement is cheap
(one sort) compared to graph-partitioning reorderings and is amortized
over the 10-1000s of CPD iterations.  :func:`partition_coo` performs that
rearrangement and compresses each block into the SPLATT layout, producing
the :class:`BlockedTensor` the MB kernels execute.

Block indices stay **global**: factor matrices are indexed directly, and
the cache model sees each block's distinct-row working sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.grid import BlockGrid
from repro.tensor.coo import COOTensor
from repro.tensor.splatt import SplattTensor
from repro.util.errors import ShapeError
from repro.util.validation import check_mode


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
    """One N-mode block in local coordinates."""

    coords: tuple[int, ...]
    bounds: tuple[tuple[int, int], ...]
    tensor: COOTensor


def partition_coo_nd(tensor: COOTensor, grid: BlockGrid) -> list[NDBlock]:
    """Reorganize an N-mode COO tensor into local-coordinate blocks.

    The order-agnostic core of :func:`partition_coo` — blocks carry plain
    COO sub-tensors (local coordinates, block-sized shapes) so any format
    can be built per block; the blocked CSF kernel uses this for the
    paper's "trivially extended to higher-order data" claim.  Non-empty
    blocks are emitted in C order over the grid coordinates; a one-block
    grid yields that block (empty or not) over the tensor itself.
    """
    if grid.shape != tensor.shape:
        raise ShapeError(
            f"grid shape {grid.shape} does not match tensor shape {tensor.shape}"
        )
    if grid.n_blocks == 1:
        # One block covering the tensor: its own arrays, with no block
        # ids, sort or gather (the unblocked kernels' path).
        coords = (0,) * grid.order
        return [NDBlock(coords, grid.block_bounds(coords), tensor)]
    flat = grid.block_of(tensor.indices)
    order = np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    if flat_sorted.shape[0]:
        starts = np.flatnonzero(
            np.concatenate(([True], flat_sorted[1:] != flat_sorted[:-1]))
        )
    else:
        starts = np.empty(0, dtype=np.int64)
    ends = np.concatenate((starts[1:], [flat_sorted.shape[0]]))

    blocks: list[NDBlock] = []
    for st, en in zip(starts, ends):
        sel = order[int(st) : int(en)]
        coords = grid.block_coords(int(flat_sorted[st]))
        bounds = grid.block_bounds(coords)
        offsets = np.asarray([b[0] for b in bounds], dtype=tensor.indices.dtype)
        blocks.append(
            NDBlock(
                coords=coords,
                bounds=bounds,
                tensor=COOTensor(
                    tuple(hi - lo for lo, hi in bounds),
                    tensor.indices[sel] - offsets,
                    tensor.values[sel],
                    validate=False,
                ),
            )
        )
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
    kernel uses.

    Parameters
    ----------
    tensor: the tensor to reorganize.
    grid: the mode-block grid (``BlockGrid``); its shape must match.
    output_mode / inner_mode: MTTKRP orientation, as in
        :meth:`repro.tensor.splatt.SplattTensor.from_coo`.
    """
    if tensor.order != 3:
        raise ShapeError("multi-dimensional blocking is implemented for 3 modes")
    output_mode = check_mode(output_mode, 3)
    if inner_mode is None:
        inner_mode = (output_mode + 1) % 3
    inner_mode = check_mode(inner_mode, 3)
    if inner_mode == output_mode:
        raise ShapeError("inner mode must differ from output mode")
    fiber_mode = 3 - output_mode - inner_mode

    # Loop-order priority: output block outermost, then fiber, then inner.
    nd_blocks = sorted(
        partition_coo_nd(tensor, grid),
        key=lambda b: (
            b.coords[output_mode], b.coords[fiber_mode], b.coords[inner_mode]
        ),
    )
    blocks = [
        TensorBlock(
            coords=b.coords,
            bounds=b.bounds,
            splatt=SplattTensor.from_coo(b.tensor, output_mode, inner_mode),
        )
        for b in nd_blocks
    ]
    return BlockedTensor(grid, blocks, output_mode, inner_mode, fiber_mode)
