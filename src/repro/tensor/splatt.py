"""The 3-mode SPLATT sparse-tensor format (Figure 1b of the paper).

The format is the 3-D analogue of CSR: nonzeros are grouped into *fibers*
(mode-2 fibers in the paper's orientation), and fibers are grouped into
*slices* (rows of the output mode).  Concretely, for the paper's mode-1
orientation of a tensor :math:`\\mathcal{X} \\in \\mathbb{R}^{I\\times J
\\times K}`:

* ``row_ptr`` (the paper's ``i_pointer``, length ``I+1``) — fiber range of
  each output row ``i``;
* ``fiber_kidx`` (the paper's ``k_index``, length ``F``) — the mode-3
  coordinate shared by all nonzeros of a fiber;
* ``fiber_ptr`` (the paper's ``k_pointer``, length ``F+1``) — nonzero range
  of each fiber;
* ``jidx`` (the paper's ``j_index``, length ``nnz``) — per-nonzero mode-2
  coordinate;
* ``vals`` (length ``nnz``) — the nonzero values.

Storage cost is ``16 + 8*I + 16*F + 16*nnz`` bytes (Section III-C), which
:meth:`SplattTensor.memory_bytes` reports exactly.

A :class:`SplattTensor` is *oriented*: it is built for a specific output
mode (whose factor is the MTTKRP destination ``A``), with a chosen inner
mode (per-nonzero index, factor ``B`` — the expensive stream identified in
Section IV) and fiber-label mode (per-fiber index, factor ``C``).  The
default orientation for output mode ``m`` uses inner mode ``(m+1) % 3`` and
fiber mode ``(m+2) % 3``, matching the paper's mode-1 layout.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.tensor.coo import COOTensor, lex_order
from repro.util.errors import FormatError, ShapeError
from repro.util.validation import (
    INDEX_DTYPE,
    check_mode,
    check_shape,
    value_dtype_of,
)


def orientation(output_mode: int, inner_mode: int | None = None) -> tuple[int, int, int]:
    """Validated ``(output, inner, fiber)`` modes of a 3-mode layout; the
    inner mode defaults to ``(output_mode + 1) % 3``."""
    output_mode = check_mode(output_mode, 3)
    if inner_mode is None:
        inner_mode = (output_mode + 1) % 3
    inner_mode = check_mode(inner_mode, 3)
    if inner_mode == output_mode:
        raise ShapeError("inner mode must differ from output mode")
    return output_mode, inner_mode, 3 - output_mode - inner_mode


class SplattTensor:
    """A 3-mode sparse tensor in the SPLATT (fiber-compressed) layout."""

    __slots__ = (
        "shape",
        "output_mode",
        "inner_mode",
        "fiber_mode",
        "row_ptr",
        "fiber_kidx",
        "fiber_ptr",
        "jidx",
        "vals",
    )

    def __init__(
        self,
        shape: Sequence[int],
        output_mode: int,
        inner_mode: int,
        fiber_mode: int,
        row_ptr: np.ndarray,
        fiber_kidx: np.ndarray,
        fiber_ptr: np.ndarray,
        jidx: np.ndarray,
        vals: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.shape = check_shape(shape)
        if len(self.shape) != 3:
            raise ShapeError(
                f"SplattTensor is 3-mode only (use CSFTensor for order "
                f"{len(self.shape)})"
            )
        modes = sorted((output_mode, inner_mode, fiber_mode))
        if modes != [0, 1, 2]:
            raise ShapeError(
                f"orientation ({output_mode}, {inner_mode}, {fiber_mode}) "
                "must be a permutation of (0, 1, 2)"
            )
        self.output_mode = int(output_mode)
        self.inner_mode = int(inner_mode)
        self.fiber_mode = int(fiber_mode)
        self.row_ptr = np.ascontiguousarray(row_ptr, dtype=INDEX_DTYPE)
        self.fiber_kidx = np.ascontiguousarray(fiber_kidx, dtype=INDEX_DTYPE)
        self.fiber_ptr = np.ascontiguousarray(fiber_ptr, dtype=INDEX_DTYPE)
        self.jidx = np.ascontiguousarray(jidx, dtype=INDEX_DTYPE)
        self.vals = np.ascontiguousarray(vals, dtype=value_dtype_of(np.asanyarray(vals)))
        if validate:
            self.check_invariants()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        coo: COOTensor,
        output_mode: int = 0,
        inner_mode: int | None = None,
    ) -> "SplattTensor":
        """Compress a COO tensor into the SPLATT layout for one output mode.

        Nonzeros are sorted by ``(output, fiber, inner)`` coordinate with
        :func:`repro.tensor.coo.lex_order`; runs with equal ``(output,
        fiber)`` become fibers.  Duplicate coordinates are preserved as
        separate nonzeros in their input order (deduplicate the COO first
        if that matters).
        """
        if coo.order != 3:
            raise ShapeError(f"SPLATT format is 3-mode only, got order {coo.order}")
        output_mode, inner_mode, fiber_mode = orientation(output_mode, inner_mode)
        i = coo.indices[:, output_mode]
        k = coo.indices[:, fiber_mode]
        j = coo.indices[:, inner_mode]
        order = lex_order(
            (i, k, j),
            (coo.shape[output_mode], coo.shape[fiber_mode], coo.shape[inner_mode]),
        )
        return cls._from_sorted(
            coo.shape, output_mode, inner_mode,
            i[order], k[order], j[order], coo.values[order],
        )

    @classmethod
    def _from_sorted(
        cls, shape: Sequence[int], output_mode: int, inner_mode: int,
        i: np.ndarray, k: np.ndarray, j: np.ndarray, vals: np.ndarray,
    ) -> "SplattTensor":
        """Compress nonzeros already sorted by ``(i, k, j)``: output,
        fiber and inner coordinate (the per-block step of
        :func:`repro.blocking.partition.partition_coo`)."""
        nnz = vals.shape[0]
        n_rows = shape[output_mode]
        # A nonzero starts a new fiber when (i, k) differs from its predecessor.
        new_fiber = np.empty(nnz, dtype=bool)
        new_fiber[:1] = True
        np.logical_or(i[1:] != i[:-1], k[1:] != k[:-1], out=new_fiber[1:])
        fiber_starts = np.flatnonzero(new_fiber)
        fiber_kidx = k[fiber_starts]
        fiber_row = i[fiber_starts]
        fiber_ptr = np.concatenate(
            [fiber_starts, np.array([nnz], dtype=INDEX_DTYPE)]
        ).astype(INDEX_DTYPE)
        fibers_per_row = np.bincount(fiber_row, minlength=n_rows)
        row_ptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.cumsum(fibers_per_row, out=row_ptr[1:])

        return cls(
            shape,
            output_mode,
            inner_mode,
            3 - output_mode - inner_mode,
            row_ptr,
            fiber_kidx,
            fiber_ptr,
            j,
            vals,
            validate=False,
        )

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.vals.shape[0])

    @property
    def n_fibers(self) -> int:
        """Number of non-empty fibers (the paper's ``F``)."""
        return int(self.fiber_kidx.shape[0])

    @property
    def n_rows(self) -> int:
        """Extent of the output mode (``I`` in the paper's orientation)."""
        return self.shape[self.output_mode]

    @property
    def inner_extent(self) -> int:
        """Extent of the inner (per-nonzero) mode — rows of factor ``B``."""
        return self.shape[self.inner_mode]

    @property
    def fiber_extent(self) -> int:
        """Extent of the fiber-label mode — rows of factor ``C``."""
        return self.shape[self.fiber_mode]

    def memory_bytes(self) -> int:
        """Storage in bytes: ``16 + 8*I + 16*F + 16*nnz`` (Section III-C)."""
        return 16 + 8 * self.n_rows + 16 * self.n_fibers + 16 * self.nnz

    def nnz_per_fiber(self) -> np.ndarray:
        """Length of every fiber; its mean drives the SPLATT-over-COO win."""
        return np.diff(self.fiber_ptr)

    def fibers_per_row(self) -> np.ndarray:
        """Number of fibers in every output row."""
        return np.diff(self.row_ptr)

    # ------------------------------------------------------------------
    # conversion & validation
    # ------------------------------------------------------------------
    def to_coo(self) -> COOTensor:
        """Expand back to coordinate format (exact inverse of ``from_coo``
        up to nonzero ordering)."""
        nnz = self.nnz
        indices = np.empty((nnz, 3), dtype=INDEX_DTYPE)
        fiber_len = np.diff(self.fiber_ptr)
        fiber_of_nz = np.repeat(
            np.arange(self.n_fibers, dtype=INDEX_DTYPE), fiber_len
        )
        row_fibers = np.diff(self.row_ptr)
        row_of_fiber = np.repeat(
            np.arange(self.n_rows, dtype=INDEX_DTYPE), row_fibers
        )
        indices[:, self.output_mode] = row_of_fiber[fiber_of_nz]
        indices[:, self.fiber_mode] = self.fiber_kidx[fiber_of_nz]
        indices[:, self.inner_mode] = self.jidx
        return COOTensor(self.shape, indices, self.vals.copy(), validate=False)

    def check_invariants(self) -> None:
        """Raise :class:`FormatError` if any structural invariant fails."""
        n_rows = self.shape[self.output_mode]
        if self.row_ptr.shape != (n_rows + 1,):
            raise FormatError(
                f"row_ptr length {self.row_ptr.shape[0]} != extent+1 {n_rows + 1}"
            )
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.n_fibers:
            raise FormatError("row_ptr must start at 0 and end at n_fibers")
        if np.any(np.diff(self.row_ptr) < 0):
            raise FormatError("row_ptr must be non-decreasing")
        if self.fiber_ptr.shape != (self.n_fibers + 1,):
            raise FormatError("fiber_ptr length must be n_fibers+1")
        if self.fiber_ptr[0] != 0 or self.fiber_ptr[-1] != self.nnz:
            raise FormatError("fiber_ptr must start at 0 and end at nnz")
        if np.any(np.diff(self.fiber_ptr) <= 0):
            raise FormatError("every fiber must contain at least one nonzero")
        if self.jidx.shape[0] != self.nnz:
            raise FormatError("jidx length must equal nnz")
        if self.nnz:
            if self.jidx.min() < 0 or self.jidx.max() >= self.inner_extent:
                raise FormatError("jidx out of bounds for the inner mode")
        if self.n_fibers:
            if self.fiber_kidx.min() < 0 or self.fiber_kidx.max() >= self.fiber_extent:
                raise FormatError("fiber_kidx out of bounds for the fiber mode")

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return (
            f"SplattTensor(shape={dims}, nnz={self.nnz}, fibers={self.n_fibers}, "
            f"modes=(out={self.output_mode}, inner={self.inner_mode}, "
            f"fiber={self.fiber_mode}))"
        )
