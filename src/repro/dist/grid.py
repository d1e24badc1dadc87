"""Process grids: 3D medium-grained (q x r x s) and the paper's 4D
rank-extended (q' x r' x s' x t) layout.

The 4D grid partitions the *processors* along the decomposition rank
first: ``t`` groups each hold a full copy of the tensor and compute an
independent ``R/t``-column strip of every factor, so inter-group
communication is a single final allgather — "operations on different
blocks along the rank are completely independent" (Section V-B).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.errors import ConfigError
from repro.util.validation import require


class ProcessGrid:
    """A (q, r, s[, t]) process grid over consecutive MPI ranks.

    Ranks are laid out in C order over ``(t, q, r, s)``: the rank-group
    index varies slowest, so each rank group is a contiguous rank range
    (as an MPI implementation would allocate it node-by-node).
    """

    def __init__(self, dims: Sequence[int], rank_groups: int = 1) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) != 3:
            raise ConfigError(f"grid needs 3 mode dimensions, got {dims}")
        require(all(d >= 1 for d in dims), "grid dims must be >= 1")
        require(rank_groups >= 1, "rank_groups must be >= 1")
        self.dims = dims
        self.rank_groups = int(rank_groups)

    # ------------------------------------------------------------------
    @property
    def group_size(self) -> int:
        """Processes per rank group (q * r * s)."""
        return int(np.prod(self.dims))

    @property
    def n_ranks(self) -> int:
        """Total processes (q * r * s * t)."""
        return self.group_size * self.rank_groups

    @property
    def is_4d(self) -> bool:
        """True when the grid has more than one rank group."""
        return self.rank_groups > 1

    def describe(self) -> str:
        """The paper's Table III grid notation: ``qxrxs`` or ``qxrxsxt``."""
        q, r, s = self.dims
        if self.is_4d:
            return f"{q}x{r}x{s}x{self.rank_groups}"
        return f"{q}x{r}x{s}"

    # ------------------------------------------------------------------
    def coords(self, rank: int) -> tuple[int, int, int, int]:
        """(a, b, c, layer) coordinates of one global rank."""
        require(0 <= rank < self.n_ranks, f"rank {rank} out of range")
        layer, within = divmod(rank, self.group_size)
        q, r, s = self.dims
        a, rem = divmod(within, r * s)
        b, c = divmod(rem, s)
        return a, b, c, layer

    def rank_of(self, a: int, b: int, c: int, layer: int = 0) -> int:
        """Inverse of :meth:`coords`."""
        q, r, s = self.dims
        require(0 <= a < q and 0 <= b < r and 0 <= c < s, "coords out of range")
        require(0 <= layer < self.rank_groups, "layer out of range")
        return layer * self.group_size + (a * r + b) * s + c

    # ------------------------------------------------------------------
    # communicator groupings used by the medium-grained MTTKRP
    # ------------------------------------------------------------------
    def group_ranks(self, layer: int) -> list[int]:
        """All ranks of one rank group."""
        base = layer * self.group_size
        return list(range(base, base + self.group_size))

    def slab_ranks(self, mode: int, index: int, layer: int = 0) -> list[int]:
        """Ranks of a rank group sharing mode-``mode`` grid coordinate
        ``index`` — the group over which that mode's factor rows are
        exchanged (e.g. all ``r x s`` processes sharing an output-mode
        slab fold their partial ``A`` rows together)."""
        require(0 <= mode < 3, "mode must be 0, 1, or 2")
        q, r, s = self.dims
        require(0 <= index < self.dims[mode], "slab index out of range")
        ranks = []
        for a in range(q):
            for b in range(r):
                for c in range(s):
                    if (a, b, c)[mode] == index:
                        ranks.append(self.rank_of(a, b, c, layer))
        return ranks

    def layer_peers(self, a: int, b: int, c: int) -> list[int]:
        """The ``t`` ranks at the same grid position across rank groups —
        the group of the final rank-dimension allgather."""
        return [self.rank_of(a, b, c, layer) for layer in range(self.rank_groups)]

    def __repr__(self) -> str:
        return f"ProcessGrid({self.describe()}, {self.n_ranks} ranks)"


def owned_ranges(lo: int, hi: int, n_owners: int) -> list[tuple[int, int]]:
    """Equal split of the row range ``[lo, hi)`` among ``n_owners`` slab
    members, in ownership order: member ``g`` owns the ``g``-th piece of
    the folded slab."""
    bounds = lo + ((hi - lo) * np.arange(n_owners + 1)) // n_owners
    return [(int(bounds[g]), int(bounds[g + 1])) for g in range(n_owners)]
