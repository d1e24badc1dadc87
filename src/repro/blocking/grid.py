"""Axis-aligned block grids over a tensor's index space.

A :class:`BlockGrid` partitions each mode's index range into contiguous
intervals; the Cartesian product of intervals forms the blocks of the
multi-dimensional blocking scheme (Figure 3a).  Grids are either *uniform*
(equal-width intervals, the MB default) or built from explicit boundaries
(:meth:`BlockGrid.from_boundaries` — used by the distributed
medium-grained decomposition, whose greedy nonzero-balancing produces
non-uniform slabs).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.errors import ConfigError, ShapeError
from repro.util.validation import INDEX_DTYPE, check_shape


class BlockGrid:
    """A partition of an N-dimensional index space into blocks."""

    __slots__ = ("shape", "boundaries")

    def __init__(self, shape: Sequence[int], block_counts: Sequence[int]) -> None:
        """Uniform grid: mode ``m`` is split into ``block_counts[m]``
        near-equal intervals."""
        shape = check_shape(shape)
        counts = tuple(int(c) for c in block_counts)
        if len(counts) != len(shape):
            raise ShapeError(
                f"need one block count per mode: shape has {len(shape)} modes, "
                f"got {len(counts)} counts"
            )
        boundaries = []
        for extent, nb in zip(shape, counts):
            if nb < 1:
                raise ConfigError(f"block counts must be >= 1, got {nb}")
            if nb > extent:
                raise ConfigError(
                    f"cannot split a mode of length {extent} into {nb} blocks"
                )
            bounds = (extent * np.arange(nb + 1, dtype=INDEX_DTYPE)) // nb
            boundaries.append(bounds)
        self.shape = shape
        self.boundaries = tuple(boundaries)

    @classmethod
    def from_boundaries(
        cls, shape: Sequence[int], boundaries: Sequence[Sequence[int]]
    ) -> "BlockGrid":
        """Grid with explicit per-mode boundaries.

        ``boundaries[m]`` must be strictly increasing, start at 0, and end
        at ``shape[m]``.
        """
        shape = check_shape(shape)
        if len(boundaries) != len(shape):
            raise ShapeError("need one boundary array per mode")
        grid = cls.__new__(cls)
        bset = []
        for m, (extent, bounds) in enumerate(zip(shape, boundaries)):
            bounds = np.asarray(bounds, dtype=INDEX_DTYPE)
            if bounds.ndim != 1 or bounds.shape[0] < 2:
                raise ConfigError(f"mode {m}: boundaries need >= 2 entries")
            if bounds[0] != 0 or bounds[-1] != extent:
                raise ConfigError(
                    f"mode {m}: boundaries must span [0, {extent}], got "
                    f"[{bounds[0]}, {bounds[-1]}]"
                )
            if np.any(np.diff(bounds) <= 0):
                raise ConfigError(f"mode {m}: boundaries must be strictly increasing")
            bset.append(bounds)
        grid.shape = shape
        grid.boundaries = tuple(bset)
        return grid

    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.shape)

    @property
    def block_counts(self) -> tuple[int, ...]:
        """Number of blocks along each mode (``N_A, N_B, N_C`` in V-A)."""
        return tuple(b.shape[0] - 1 for b in self.boundaries)

    @property
    def n_blocks(self) -> int:
        """Total number of blocks (product of per-mode counts)."""
        return int(np.prod(self.block_counts))

    def block_of(
        self, indices: np.ndarray, modes: "Sequence[int] | None" = None
    ) -> np.ndarray:
        """Map coordinates to flat block ids.

        ``indices`` has shape ``(n, order)``; the result is ``(n,)`` flat
        ids in C order over the per-mode block coordinates, taken in the
        order of ``modes`` (default: mode 0 first).

        Each mode maps coordinates through a table of block ids, one entry
        per index of the mode.  Out-of-range coordinates raise
        :class:`ShapeError` — without the check, a negative coordinate
        would silently wrap into the last block (the runtime twin of
        plan-verifier rule PL401).
        """
        indices = np.asarray(indices)
        if indices.ndim != 2 or indices.shape[1] != self.order:
            raise ShapeError(
                f"indices must be (n, {self.order}), got {indices.shape}"
            )
        flat = np.zeros(indices.shape[0], dtype=INDEX_DTYPE)
        for m in range(self.order) if modes is None else modes:
            bounds = self.boundaries[m]
            col = indices[:, m]
            if col.size and (col.min() < 0 or col.max() >= self.shape[m]):
                bad = int(((col < 0) | (col >= self.shape[m])).sum())
                raise ShapeError(
                    f"{bad} mode-{m} coordinate(s) outside [0, {self.shape[m]})"
                )
            n_blocks = bounds.shape[0] - 1
            block_ids = np.repeat(
                np.arange(n_blocks, dtype=INDEX_DTYPE), np.diff(bounds)
            )
            flat = flat * n_blocks + block_ids[col]
        return flat

    def block_coords(self, flat_id: int) -> tuple[int, ...]:
        """Inverse of the C-order flattening used by :meth:`block_of`."""
        counts = self.block_counts
        coords = []
        for nb in reversed(counts):
            coords.append(int(flat_id % nb))
            flat_id //= nb
        return tuple(reversed(coords))

    def block_bounds(self, coords: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Half-open index ranges ``(lo, hi)`` per mode for one block."""
        coords = tuple(int(c) for c in coords)
        counts = self.block_counts
        if len(coords) != self.order or any(
            not 0 <= c < n for c, n in zip(coords, counts)
        ):
            raise ConfigError(f"block coords {coords} out of range for {counts}")
        return tuple(
            (int(b[c]), int(b[c + 1])) for b, c in zip(self.boundaries, coords)
        )

    def block_shape(self, coords: Sequence[int]) -> tuple[int, ...]:
        """Extent of one block along each mode."""
        return tuple(hi - lo for lo, hi in self.block_bounds(coords))

    def __repr__(self) -> str:
        dims = "x".join(str(c) for c in self.block_counts)
        return f"BlockGrid({dims} blocks over shape {self.shape})"


def resolve_grid(
    shape: Sequence[int],
    grid: "BlockGrid | None",
    block_counts: "Sequence[int] | None",
) -> "BlockGrid | None":
    """The block grid from either spelling a caller used: an explicit
    ``grid`` or uniform per-mode ``block_counts``; ``None`` when neither
    is given."""
    if grid is not None and block_counts is not None:
        raise ConfigError("give grid or block_counts, not both")
    if block_counts is not None:
        return BlockGrid(shape, block_counts)
    return grid


def clamp_block_counts(
    block_counts: "Sequence[int] | None", shape: Sequence[int]
) -> "tuple[int, ...] | None":
    """Per-mode block counts cut to ``[1, shape[m]]`` for a (sub-)tensor
    that may be thinner than the grid was chosen for: :class:`BlockGrid`
    raises :class:`ConfigError` on a count larger than its mode.
    ``None`` (no grid) passes through."""
    if block_counts is None:
        return None
    return tuple(max(1, min(int(c), int(s))) for c, s in zip(block_counts, shape))
