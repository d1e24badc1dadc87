"""MTTKRP for *any* mode from a single CSF tree.

SPLATT keeps one fiber-compressed copy of the tensor per mode (the
memory-footprint formulas of Section III-C apply per copy); Smith &
Karypis's CSF work shows one tree suffices: the output mode may sit at
any level.  For a target level ``l`` the kernel runs two passes:

* **up** (bottom-up): for each level-``l`` node, the sum over its leaves
  of ``val * prod(factor rows of levels below l)`` — the same reduction
  as the root-mode kernel, stopped early: its leaf level is the same
  compiled CSR product (:func:`repro.kernels.base.fiber_sums`), the
  levels above it the same compiled segment sums
  (:func:`repro.kernels.base.segment_sums_into`);
* **down** (top-down): for each level-``l`` node, the product of its
  ancestors' factor rows (levels above ``l``), propagated by repeating
  parent values over child ranges.

The contribution of node ``n`` with coordinate ``fid(n)`` is then
``down(n) * up(n)``, scatter-added into the output (coordinates repeat
across subtrees, unlike the root level): the plan sorts the target
level's nodes by coordinate once and turns that order into a CSR matrix
with one row per output row that owns a node, and each execute sums
with one compiled product of it (:func:`repro.kernels.base.fiber_sums`).
At an internal level the matrix has unit values and multiplies ``down *
up``.  At the leaf level ``up`` is the leaf's value, so the matrix
(output rows x last internal nodes, the leaf values in row order)
multiplies ``down`` at the last internal level, before ``down`` would be
repeated out to the leaves.  With ``l = 0`` this reduces to the
root-mode kernel; the test suite checks every placement against the
dense reference.

This kernel trades a little arithmetic for a 3x (order-``N``x) cut in
tensor storage — the natural counterpart of the paper's
memory-vs-communication trade in the 4D distributed scheme.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.blocking.partition import TensorBlock
from repro.kernels.base import (
    BlockStats,
    Kernel,
    Plan,
    fiber_sums,
    register_kernel,
    reject_unknown_params,
    seal_fibers,
    unit_csr,
)
from repro.kernels.csf_mttkrp import reduce_levels, seal_tree
from repro.tensor.coo import COOTensor
from repro.tensor.csf import CSFTensor
from repro.util.validation import INDEX_DTYPE, VALUE_DTYPE


class CSFAnyPlan(Plan):
    """One CSF tree serving MTTKRP for every mode."""

    kernel_name = "csf-any"

    def __init__(self, csf: CSFTensor, mode: int) -> None:
        self.csf = csf
        self.shape = csf.shape
        self.mode = mode
        coords = (0,) * csf.order
        #: The tree as the one block of a tree plan.
        self.blocks = [TensorBlock(coords, tuple((0, n) for n in csf.shape), csf)]
        #: Tree level at which the output mode sits.
        self.target_level = csf.mode_order.index(mode)
        self.inner_mode = csf.mode_order[-1]
        self.fiber_mode = csf.mode_order[-2]
        where = f"block {coords}, mode {self.inner_mode}"
        seal_tree(csf, where)
        if self.target_level > 0:
            # Below the root, output coordinates repeat across subtrees.
            ids = self._target_ids()
            # Stable order of the target level's nodes by output row, and
            # the start of each row's run in that order.
            order = np.argsort(ids, kind="stable")
            sorted_ids = ids[order]
            starts = np.flatnonzero(np.diff(sorted_ids, prepend=-1))
            #: Row ``r`` of ``(scatter_ptr, scatter_cols, scatter_vals)``
            #: sums output row ``scatter_rows[r]``'s target nodes: at an
            #: internal level each node with a unit value, at the leaf
            #: level each leaf as its value at its parent's column.
            self.scatter_rows = sorted_ids[starts]
            self.scatter_rows.flags.writeable = False
            self.scatter_ptr = np.append(starts, ids.shape[0]).astype(INDEX_DTYPE)
            if self.target_level < csf.order - 1:
                self.scatter_cols = order
                self.scatter_vals = np.ones(ids.shape[0], dtype=VALUE_DTYPE)
                n_cols = ids.shape[0]
            else:
                last = csf.levels[-1]
                parents = np.repeat(
                    np.arange(last.n_nodes, dtype=INDEX_DTYPE), np.diff(last.fptr)
                )
                self.scatter_cols = parents[order]
                self.scatter_vals = csf.vals[order]
                n_cols = last.n_nodes
            seal_fibers(
                self.scatter_ptr, self.scatter_cols, self.scatter_vals, n_cols, where
            )
        self._stats: "list[BlockStats] | None" = None

    def _target_ids(self) -> np.ndarray:
        """Output coordinate of every node at the target level."""
        if self.target_level < len(self.csf.levels):
            return self.csf.levels[self.target_level].fids
        return self.csf.leaf_fids

    def block_stats(self) -> list[BlockStats]:
        if self._stats is None:
            csf = self.csf
            self._stats = [
                BlockStats.from_tree(
                    csf,
                    self.blocks[0].coords,
                    int(np.unique(self._target_ids()).size),
                )
            ]
        return self._stats


class CSFAnyKernel(Kernel):
    """Any-mode MTTKRP over one shared CSF tree."""

    name = "csf-any"

    def prepare(
        self,
        tensor: COOTensor,
        mode: int,
        mode_order: "Sequence[int] | None" = None,
        **params: object,
    ) -> CSFAnyPlan:
        """Build (or reuse) one CSF; ``mode`` may sit at any level.

        The default ordering sorts modes by length (SPLATT's compression
        heuristic) regardless of the output mode — the whole point is
        that one tree serves every mode.  Pass the same explicit
        ``mode_order`` for each mode to share the tree across plans via
        :meth:`plan_for_mode`.
        """
        reject_unknown_params(self.name, params, known=("mode_order",))
        order = tensor.order
        mode = mode % order
        if mode_order is None:
            mode_order = tuple(
                sorted(range(order), key=lambda m: tensor.shape[m])
            )
        csf = CSFTensor.from_coo(tensor, tuple(int(m) for m in mode_order))
        return CSFAnyPlan(csf, mode)

    @staticmethod
    def plan_for_mode(base: CSFAnyPlan, mode: int) -> CSFAnyPlan:
        """Re-target an existing plan's tree to another output mode —
        zero preparation cost (the one-copy benefit)."""
        return CSFAnyPlan(base.csf, mode % len(base.shape))

    # ------------------------------------------------------------------
    def run(
        self, plan: CSFAnyPlan, factors: Sequence[np.ndarray], A: np.ndarray
    ) -> None:
        csf = plan.csf
        if csf.nnz == 0:
            return
        lvl = plan.target_level
        order = csf.order

        # ---- up pass: subtree sums below the target level --------------
        if lvl == order - 1:
            up = None  # the leaf CSR's values; handled in the combine
        else:
            # Leaves -> last internal level: the compiled CSR product;
            # then the root-mode kernel's levels, stopped at ``lvl``.
            leaf_mode = csf.mode_order[-1]
            [(_, _, up)] = fiber_sums(
                csf.levels[-1].fptr, csf.leaf_fids, csf.vals,
                factors[leaf_mode], csf.shape[leaf_mode],
            )
            spans = [(0, level.n_nodes) for level in csf.levels]
            unit = unit_csr(up.shape[0], up.dtype)
            up = reduce_levels(csf, up, factors, lvl, spans, unit)

        # ---- down pass: ancestor products above the target level -------
        if lvl == 0:
            down = None
        else:
            down = factors[csf.mode_order[0]][csf.levels[0].fids]
            for m in range(1, lvl):
                child_counts = np.diff(csf.levels[m - 1].fptr)
                down = np.repeat(down, child_counts, axis=0)
                down = down * factors[csf.mode_order[m]][csf.levels[m].fids]

        # ---- combine ----------------------------------------------------
        if lvl == 0:
            A[csf.levels[0].fids] += up
            return
        if lvl < order - 1:
            # One final propagation from level lvl-1 to the target level
            # (its factor is the output and is not multiplied in).
            target_counts = np.diff(csf.levels[lvl - 1].fptr)
            down = np.repeat(down, target_counts, axis=0) * up
        # One compiled product sums ``down * up`` (at the leaf level
        # ``val * down(parent)``, ``down`` still at the last internal
        # level) per output row.
        [(_, _, rows)] = fiber_sums(
            plan.scatter_ptr, plan.scatter_cols, plan.scatter_vals,
            down, down.shape[0],
        )
        A[plan.scatter_rows] += rows


register_kernel(CSFAnyKernel())
