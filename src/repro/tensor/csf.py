"""General N-mode compressed sparse fiber (CSF) format.

CSF (Smith & Karypis, IA\\ :sup:`3` 2015) is the higher-order generalization
of the SPLATT layout: the nonzeros form a forest in which level ``l`` of the
tree corresponds to the ``l``-th mode of a chosen *mode ordering*.  Each
level stores the coordinate of every node (``fids``) and a pointer array
(``fptr``) delimiting its children in the next level; the leaves carry the
values.

For a 3-mode tensor the tree ordered by :func:`splatt_order` is the
SPLATT layout of the paper's Figure 1b: level-0 nodes are the output
rows that own a fiber, level-1 nodes are the fibers (``fids`` is the
paper's ``k_index``, ``fptr`` its ``k_pointer``), and the leaves carry
``j_index`` and the values.  SPLATT's dense ``i_pointer`` is the root
level written out per row, which the kernels build once per plan.  The
paper focuses on the 3-mode case "but our methodology and result can
trivially be extended to higher-order data" — any other ordering or
order is that extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.tensor.coo import COOTensor, lex_order
from repro.util.errors import FormatError, ShapeError
from repro.util.validation import INDEX_DTYPE, check_mode, check_shape, value_dtype_of


def splatt_order(mode: int) -> tuple[int, int, int]:
    """The SPLATT orientation of a 3-mode tree for output ``mode``:
    ``(mode, fiber, inner)`` with the per-nonzero inner mode ``(mode+1) %
    3`` and the fiber-label mode ``(mode+2) % 3``, the paper's mode-1
    layout."""
    mode = check_mode(mode, 3)
    return mode, (mode + 2) % 3, (mode + 1) % 3


@dataclass(frozen=True)
class CSFLevel:
    """One level of the CSF tree.

    ``fids[n]`` is the coordinate (in the level's mode) of node ``n``;
    ``fptr[n]:fptr[n+1]`` is the range of its children at the next level
    (for the last internal level, the range of its leaf nonzeros).
    """

    fids: np.ndarray
    fptr: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.fids.shape[0])


class CSFTensor:
    """An N-mode sparse tensor compressed as a CSF tree."""

    __slots__ = ("shape", "mode_order", "levels", "leaf_fids", "vals")

    def __init__(
        self,
        shape: Sequence[int],
        mode_order: Sequence[int],
        levels: list[CSFLevel],
        leaf_fids: np.ndarray,
        vals: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.shape = check_shape(shape)
        self.mode_order = tuple(int(m) for m in mode_order)
        if sorted(self.mode_order) != list(range(len(self.shape))):
            raise ShapeError(
                f"mode_order {mode_order} is not a permutation of the "
                f"{len(self.shape)} modes"
            )
        if len(levels) != len(self.shape) - 1:
            raise ShapeError(
                f"expected {len(self.shape) - 1} internal levels, got {len(levels)}"
            )
        self.levels = levels
        self.leaf_fids = np.ascontiguousarray(leaf_fids, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals, dtype=value_dtype_of(np.asanyarray(vals)))
        if validate:
            self.check_invariants()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls, coo: COOTensor, mode_order: Sequence[int] | None = None
    ) -> "CSFTensor":
        """Compress a COO tensor given a mode ordering (root mode first).

        Nonzeros are sorted along ``mode_order`` with
        :func:`repro.tensor.coo.lex_order`; duplicate coordinates stay
        separate leaves in their input order.  The default ordering is
        ``(0, 1, ..., N-1)``.  SPLATT's heuristic of sorting modes by
        length (shortest at the root) can be had by passing
        ``np.argsort(coo.shape)``.
        """
        order = len(coo.shape)
        if order < 2:
            raise ShapeError("CSF needs at least 2 modes")
        if mode_order is None:
            mode_order = tuple(range(order))
        mode_order = tuple(int(m) for m in mode_order)
        if sorted(mode_order) != list(range(order)):
            raise ShapeError(f"{mode_order} is not a permutation of modes")

        cols = [coo.indices[:, m] for m in mode_order]
        perm = lex_order(cols, [coo.shape[m] for m in mode_order])
        return cls._from_sorted(
            coo.shape, mode_order, [c[perm] for c in cols], coo.values[perm]
        )

    @classmethod
    def _from_sorted(
        cls,
        shape: Sequence[int],
        mode_order: tuple[int, ...],
        cols: list[np.ndarray],
        vals: np.ndarray,
    ) -> "CSFTensor":
        """Compress nonzeros already sorted along ``mode_order``;
        ``cols[l]`` holds the coordinates of mode ``mode_order[l]`` (the
        per-block step of :func:`repro.blocking.partition.partition_coo`)."""
        order = len(shape)
        nnz = vals.shape[0]
        # A nonzero starts a node at level l when any of the first l+1
        # sorted coordinates changed, so a node start at one level is a
        # node start at every level below it.
        change = np.arange(nnz) == 0
        masks: list[np.ndarray] = []
        for lvl in range(order - 1):
            change = change.copy()
            change[1:] |= cols[lvl][1:] != cols[lvl][:-1]
            masks.append(change)
        starts = [np.flatnonzero(mask) for mask in masks]

        levels: list[CSFLevel] = []
        for lvl in range(order - 1):
            if lvl < order - 2:
                # Children are counted in one pass over the next level's
                # node starts: the ones that also start a node here.
                fptr = np.flatnonzero(masks[lvl][starts[lvl + 1]])
                fptr = np.append(fptr, starts[lvl + 1].shape[0])
            else:
                fptr = np.append(starts[lvl], nnz)
            levels.append(CSFLevel(
                fids=cols[lvl][starts[lvl]],
                fptr=fptr.astype(INDEX_DTYPE, copy=False),
            ))

        return cls(
            shape,
            mode_order,
            levels,
            cols[-1],
            vals,
            validate=False,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros (leaves)."""
        return int(self.vals.shape[0])

    @property
    def root_mode(self) -> int:
        """The original mode at the root of the tree (the MTTKRP output
        mode of the natural kernel for this ordering)."""
        return self.mode_order[0]

    def nodes_per_level(self) -> tuple[int, ...]:
        """Node counts for every internal level plus the leaf count."""
        return tuple(lvl.n_nodes for lvl in self.levels) + (self.nnz,)

    def memory_bytes(self) -> int:
        """Storage: 8 bytes per node id + pointer entry + leaf id + value."""
        total = 0
        for lvl in self.levels:
            total += 8 * lvl.fids.shape[0] + 8 * lvl.fptr.shape[0]
        total += 16 * self.nnz
        return total

    # ------------------------------------------------------------------
    # conversion & validation
    # ------------------------------------------------------------------
    def to_coo(self) -> COOTensor:
        """Expand back to coordinate format."""
        nnz = self.nnz
        indices = np.empty((nnz, self.order), dtype=INDEX_DTYPE)
        indices[:, self.mode_order[-1]] = self.leaf_fids
        spans = self.leaf_spans()
        for lvl_idx, lvl in enumerate(self.levels):
            indices[:, self.mode_order[lvl_idx]] = np.repeat(lvl.fids, spans[lvl_idx])
        return COOTensor(self.shape, indices, self.vals.copy(), validate=False)

    def leaf_spans(self) -> list[np.ndarray]:
        """For each internal level, the number of leaves under each node."""
        spans: list[np.ndarray] = [None] * (self.order - 1)  # type: ignore[list-item]
        spans[-1] = np.diff(self.levels[-1].fptr)
        for lvl_idx in range(self.order - 3, -1, -1):
            child = spans[lvl_idx + 1]
            fptr = self.levels[lvl_idx].fptr
            if self.levels[lvl_idx].n_nodes:
                spans[lvl_idx] = np.add.reduceat(child, fptr[:-1])
            else:
                spans[lvl_idx] = np.empty(0, dtype=INDEX_DTYPE)
        return spans

    def check_invariants(self) -> None:
        """Raise :class:`FormatError` if the tree structure is inconsistent."""
        for lvl_idx, lvl in enumerate(self.levels):
            if lvl.fptr is None:
                raise FormatError(f"level {lvl_idx} missing fptr")
            if lvl.fptr.shape[0] != lvl.n_nodes + 1:
                raise FormatError(
                    f"level {lvl_idx}: fptr length {lvl.fptr.shape[0]} != "
                    f"n_nodes+1 {lvl.n_nodes + 1}"
                )
            if lvl.n_nodes and lvl.fptr[0] != 0:
                raise FormatError(f"level {lvl_idx}: fptr must start at 0")
            if np.any(np.diff(lvl.fptr) <= 0):
                raise FormatError(f"level {lvl_idx}: every node needs >=1 child")
            extent = self.shape[self.mode_order[lvl_idx]]
            if lvl.n_nodes and (lvl.fids.min() < 0 or lvl.fids.max() >= extent):
                raise FormatError(f"level {lvl_idx}: fids out of bounds")
            child_count = (
                self.levels[lvl_idx + 1].n_nodes
                if lvl_idx + 1 < len(self.levels)
                else self.nnz
            )
            if lvl.n_nodes and lvl.fptr[-1] != child_count:
                raise FormatError(
                    f"level {lvl_idx}: fptr ends at {lvl.fptr[-1]}, expected "
                    f"{child_count}"
                )
        if self.leaf_fids.shape[0] != self.nnz:
            raise FormatError("leaf_fids length must equal nnz")
        extent = self.shape[self.mode_order[-1]]
        if self.nnz and (self.leaf_fids.min() < 0 or self.leaf_fids.max() >= extent):
            raise FormatError("leaf_fids out of bounds")

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return (
            f"CSFTensor(shape={dims}, nnz={self.nnz}, "
            f"mode_order={self.mode_order}, nodes={self.nodes_per_level()})"
        )
