"""Structural analysis of sparse tensors.

The paper's Section VI repeatedly correlates performance with tensor
structure — fiber lengths, mode lengths, dense sub-structure, popularity
skew.  :func:`analyze` computes those properties in one pass and
:meth:`TensorStats.render` prints them as the kind of table a performance
engineer would want before choosing a blocking strategy (the examples use
it that way).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.coo import COOTensor
from repro.util.formatting import format_bytes, format_count, format_table
from repro.util.validation import check_mode


@dataclass(frozen=True)
class ModeStats:
    """Per-mode structural statistics (for one MTTKRP orientation)."""

    mode: int
    extent: int
    #: Distinct indices appearing (factor-row working set).
    distinct: int
    #: Average accesses per distinct index (nnz / distinct).
    reuse: float
    #: Fraction of accesses hitting the hottest 10% of indices.
    top_decile_share: float
    #: Gini-style imbalance of the slice histogram (0 = uniform).
    imbalance: float


@dataclass(frozen=True)
class TensorStats:
    """Whole-tensor structural report."""

    shape: tuple[int, ...]
    nnz: int
    density: float
    coo_bytes: int
    #: SPLATT stats for each output-mode orientation (3-mode only).
    splatt_bytes: "int | None"
    n_fibers: "int | None"
    avg_fiber_length: "float | None"
    modes: tuple[ModeStats, ...]

    def render(self) -> str:
        """Monospace report."""
        header = [
            f"shape: {'x'.join(str(s) for s in self.shape)}   "
            f"nnz: {format_count(self.nnz)}   density: {self.density:.2e}",
            f"storage: COO {format_bytes(self.coo_bytes)}"
            + (
                f", SPLATT {format_bytes(self.splatt_bytes)} "
                f"({self.n_fibers} fibers, avg length "
                f"{self.avg_fiber_length:.2f})"
                if self.splatt_bytes is not None
                else ""
            ),
        ]
        rows = [
            [
                m.mode,
                m.extent,
                m.distinct,
                f"{m.reuse:.1f}",
                f"{m.top_decile_share:.2f}",
                f"{m.imbalance:.2f}",
            ]
            for m in self.modes
        ]
        table = format_table(
            ["mode", "extent", "distinct", "reuse", "top-10% share", "imbalance"],
            rows,
        )
        return "\n".join(header) + "\n" + table


def _mode_stats(tensor: COOTensor, mode: int) -> ModeStats:
    mode = check_mode(mode, tensor.order)
    counts = np.bincount(tensor.indices[:, mode], minlength=tensor.shape[mode])
    nonzero_counts = counts[counts > 0]
    distinct = int(nonzero_counts.size)
    if distinct == 0:
        return ModeStats(mode, tensor.shape[mode], 0, 0.0, 0.0, 0.0)
    reuse = tensor.nnz / distinct
    top = np.sort(nonzero_counts)[::-1][: max(1, distinct // 10)]
    top_share = float(top.sum() / tensor.nnz)
    # Mean absolute deviation of slice loads, normalized — 0 for uniform.
    mean = nonzero_counts.mean()
    imbalance = float(np.abs(nonzero_counts - mean).mean() / mean)
    return ModeStats(
        mode=mode,
        extent=tensor.shape[mode],
        distinct=distinct,
        reuse=reuse,
        top_decile_share=top_share,
        imbalance=imbalance,
    )


def splatt_footprint(tensor: COOTensor, mode: int = 0) -> tuple[int, int]:
    """Fibers ``F`` and bytes ``16 + 8*I + 16*F + 16*nnz`` (Section III-C)
    of a 3-mode tensor in the SPLATT layout for output ``mode``, whose
    fibers are labeled by mode ``(mode + 2) % 3``."""
    mode = check_mode(mode, 3)
    n_fibers = tensor.fiber_count(mode, (mode + 2) % 3)
    return n_fibers, 16 + 8 * tensor.shape[mode] + 16 * n_fibers + 16 * tensor.nnz


def analyze(tensor: COOTensor) -> TensorStats:
    """Compute the structural report for any-order tensors."""
    splatt_bytes = n_fibers = avg_len = None
    if tensor.order == 3 and tensor.nnz:
        n_fibers, splatt_bytes = splatt_footprint(tensor)
        avg_len = tensor.nnz / max(n_fibers, 1)
    return TensorStats(
        shape=tensor.shape,
        nnz=tensor.nnz,
        density=tensor.density,
        coo_bytes=tensor.memory_bytes(),
        splatt_bytes=splatt_bytes,
        n_fibers=n_fibers,
        avg_fiber_length=avg_len,
        modes=tuple(_mode_stats(tensor, m) for m in range(tensor.order)),
    )
