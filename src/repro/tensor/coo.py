"""N-mode coordinate (COO) sparse tensor (Figure 1a of the paper).

Each nonzero is stored with its full coordinate tuple.  For a 3-mode tensor
with 64-bit indices and double-precision values this costs ``32 * nnz``
bytes (Section III-C), which :meth:`COOTensor.memory_bytes` reports exactly.

The COO tensor is the interchange format of the library: generators produce
it, the SPLATT/CSF builders and the blocking partitioner consume it, and IO
reads/writes it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.util.errors import NonFiniteError, ShapeError
from repro.util.validation import (
    INDEX_DTYPE,
    as_value_array,
    check_bounds,
    check_mode,
    check_shape,
    value_dtype_of,
)


def lex_order(cols: Sequence[np.ndarray], extents: Sequence[int]) -> np.ndarray:
    """Permutation sorting nonzeros lexicographically by ``cols``, first
    column most significant: exactly what ``lexsort(cols[::-1])`` returns.

    ``cols[c]`` holds values in ``[0, extents[c])``.  The columns are packed
    into one int64 key ``((c0*n1 + c1)*n2 + c2)...`` and argsorted with the
    default (SIMD, unstable) sort: distinct keys have one sorted order.
    Only when two sorted keys are equal (duplicate coordinates) is the key
    re-sorted stably, so duplicates keep their input order as with
    ``lexsort``.  When the extents' product overflows an int64 (Amazon's
    4.8M x 1.8M x 1.8M does), the columns are lexsorted instead.
    """
    span = 1
    for extent in extents:
        span *= int(extent)
    if span >= 2**63:
        return np.lexsort(tuple(reversed(cols)))
    key = np.array(cols[0], dtype=np.int64)
    for col, extent in zip(cols[1:], extents[1:]):
        key *= int(extent)
        key += col
    order = np.argsort(key)
    ranked = key[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(key, kind="stable")
    return order


class COOTensor:
    """An N-mode sparse tensor in coordinate format.

    Parameters
    ----------
    shape:
        Mode lengths ``(I_1, ..., I_N)``.
    indices:
        Integer array of shape ``(nnz, N)``; row ``t`` holds the coordinates
        of nonzero ``t``.
    values:
        Float array of shape ``(nnz,)``.
    validate:
        When true (default) bounds-check all coordinates and reject NaN or
        infinite values (:class:`NonFiniteError`).  Internal callers
        that construct provably-valid tensors pass ``False``.

    Notes
    -----
    The class does **not** deduplicate on construction; use
    :meth:`deduplicate` when the source may contain repeated coordinates
    (the synthetic generators do this for you).
    """

    __slots__ = ("shape", "indices", "values")

    def __init__(
        self,
        shape: Sequence[int],
        indices: np.ndarray,
        values: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self.shape: tuple[int, ...] = check_shape(shape)
        indices = np.ascontiguousarray(indices, dtype=INDEX_DTYPE)
        if indices.ndim != 2:
            raise ShapeError(f"indices must be 2-D (nnz, order), got {indices.shape}")
        if indices.shape[1] != len(self.shape):
            raise ShapeError(
                f"indices have {indices.shape[1]} modes but shape has {len(self.shape)}"
            )
        self.indices: np.ndarray = indices
        self.values: np.ndarray = as_value_array(values, "values")
        if self.values.shape[0] != indices.shape[0]:
            raise ShapeError(
                f"{indices.shape[0]} coordinate rows but {self.values.shape[0]} values"
            )
        if validate:
            for m, extent in enumerate(self.shape):
                check_bounds(self.indices[:, m], extent, f"mode-{m} indices")
            bad = np.flatnonzero(~np.isfinite(self.values))
            if bad.size:
                t = int(bad[0])
                raise NonFiniteError(
                    f"nonzero {t} at {tuple(int(i) for i in self.indices[t])} "
                    f"has non-finite value {self.values[t]}"
                )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Number of modes (``N``)."""
        return len(self.shape)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return int(self.values.shape[0])

    @property
    def density(self) -> float:
        """Fraction of possible entries that are stored."""
        total = float(np.prod([float(s) for s in self.shape]))
        return self.nnz / total if total else 0.0

    def memory_bytes(self) -> int:
        """Storage cost in bytes: ``8 * order * nnz`` of indices plus one
        value stream at the stored itemsize.

        Matches the paper's ``32 * nnz`` for 3-mode tensors with 64-bit
        indices and double-precision values (Section III-C); float32
        tensors halve the value stream.
        """
        return (8 * self.order + self.values.dtype.itemsize) * self.nnz

    def mode_index(self, mode: int) -> np.ndarray:
        """Return the 1-D coordinate array of one mode (a view)."""
        mode = check_mode(mode, self.order)
        return self.indices[:, mode]

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "COOTensor":
        """Deep copy."""
        return COOTensor(
            self.shape, self.indices.copy(), self.values.copy(), validate=False
        )

    def permute_modes(self, perm: Sequence[int]) -> "COOTensor":
        """Reorder modes: mode ``m`` of the result is mode ``perm[m]`` of self.

        Used by the kernels to reduce mode-``n`` MTTKRP to the mode-0 case
        and by the medium-grained partitioner's random mode permutation.
        """
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(self.order)):
            raise ShapeError(f"{perm} is not a permutation of modes 0..{self.order - 1}")
        new_shape = tuple(self.shape[p] for p in perm)
        new_indices = np.ascontiguousarray(self.indices[:, list(perm)])
        return COOTensor(new_shape, new_indices, self.values.copy(), validate=False)

    def sort(self, mode_priority: Sequence[int] | None = None) -> "COOTensor":
        """Return a copy with nonzeros sorted lexicographically.

        ``mode_priority`` lists modes from most- to least-significant;
        default is ``(0, 1, ..., N-1)``.
        """
        if mode_priority is None:
            mode_priority = tuple(range(self.order))
        order = self._lex_order(mode_priority)
        return COOTensor(
            self.shape,
            np.ascontiguousarray(self.indices[order]),
            np.ascontiguousarray(self.values[order]),
            validate=False,
        )

    def _lex_order(self, mode_priority: Sequence[int]) -> np.ndarray:
        """Permutation of nonzeros sorting by the given mode priority."""
        priority = [check_mode(m, self.order) for m in mode_priority]
        if len(set(priority)) != len(priority):
            raise ShapeError(f"duplicate modes in sort priority {mode_priority}")
        return lex_order(
            [self.indices[:, m] for m in priority],
            [self.shape[m] for m in priority],
        )

    def deduplicate(self) -> "COOTensor":
        """Sum values of repeated coordinates; result is sorted by mode 0..N-1.

        Poisson/count generation naturally produces duplicates (each draw is
        one observed event); deduplication turns draws into counts.
        """
        if self.nnz == 0:
            return self.copy()
        order = self._lex_order(range(self.order))
        idx = self.indices[order]
        vals = self.values[order]
        # Rows differing from their predecessor start a new group.
        new_group = np.empty(idx.shape[0], dtype=bool)
        new_group[0] = True
        np.any(idx[1:] != idx[:-1], axis=1, out=new_group[1:])
        group_ids = np.cumsum(new_group) - 1
        n_groups = int(group_ids[-1]) + 1
        summed = np.zeros(n_groups, dtype=vals.dtype)
        np.add.at(summed, group_ids, vals)
        return COOTensor(
            self.shape,
            np.ascontiguousarray(idx[new_group]),
            summed,
            validate=False,
        )

    def filter(self, mask: np.ndarray) -> "COOTensor":
        """Keep only the nonzeros selected by a boolean mask (or index array)."""
        return COOTensor(
            self.shape,
            np.ascontiguousarray(self.indices[mask]),
            np.ascontiguousarray(self.values[mask]),
            validate=False,
        )

    def extract(self, bounds: Sequence[tuple[int, int]]) -> "COOTensor":
        """Sub-tensor over half-open per-mode ranges, re-based to local
        coordinates (the block-extraction primitive of the partitioners).
        """
        if len(bounds) != self.order:
            raise ShapeError(f"need {self.order} (lo, hi) ranges")
        lows = []
        mask = np.ones(self.nnz, dtype=bool)
        for m, (lo, hi) in enumerate(bounds):
            lo, hi = int(lo), int(hi)
            if not 0 <= lo < hi <= self.shape[m]:
                raise ShapeError(
                    f"mode {m}: range [{lo}, {hi}) invalid for extent "
                    f"{self.shape[m]}"
                )
            lows.append(lo)
            col = self.indices[:, m]
            mask &= (col >= lo) & (col < hi)
        sub_idx = self.indices[mask] - np.asarray(lows, dtype=INDEX_DTYPE)
        return COOTensor(
            tuple(hi - lo for lo, hi in bounds),
            np.ascontiguousarray(sub_idx),
            np.ascontiguousarray(self.values[mask]),
            validate=False,
        )

    def compact(self) -> "tuple[COOTensor, list[np.ndarray]]":
        """Drop empty slices from every mode.

        Returns the compacted tensor plus, per mode, the array mapping new
        indices back to the original ones (``original = mapping[new]``) —
        useful before building factor matrices for tensors with huge
        hollow index spaces (Reddit/Amazon-style ids).
        """
        mappings: list[np.ndarray] = []
        new_cols = []
        new_shape = []
        for m in range(self.order):
            used, inverse = np.unique(self.indices[:, m], return_inverse=True)
            mappings.append(used.astype(INDEX_DTYPE))
            new_cols.append(inverse.astype(INDEX_DTYPE))
            new_shape.append(max(1, int(used.size)))
        indices = (
            np.stack(new_cols, axis=1)
            if self.nnz
            else np.empty((0, self.order), dtype=INDEX_DTYPE)
        )
        return (
            COOTensor(tuple(new_shape), indices, self.values.copy(), validate=False),
            mappings,
        )

    # ------------------------------------------------------------------
    # analysis helpers (used by partitioners and the traffic model)
    # ------------------------------------------------------------------
    def slice_nnz(self, mode: int) -> np.ndarray:
        """Number of nonzeros in each mode-``mode`` slice (length = extent).

        The medium-grained partitioner balances these counts greedily.
        """
        mode = check_mode(mode, self.order)
        return np.bincount(self.indices[:, mode], minlength=self.shape[mode]).astype(
            INDEX_DTYPE
        )

    def distinct_per_mode(self) -> tuple[int, ...]:
        """Number of distinct indices appearing in each mode.

        This is the per-mode working-set size: the traffic model uses
        ``distinct * R * 8`` bytes as the touched portion of each factor.
        """
        return tuple(
            int(np.unique(self.indices[:, m]).size) for m in range(self.order)
        )

    def fiber_count(self, slice_mode: int, fiber_mode: int) -> int:
        """Number of non-empty fibers when slices run along ``slice_mode``
        and each fiber is labeled by ``fiber_mode`` (the remaining mode(s)
        vary inside the fiber).

        For the SPLATT layout of a 3-mode tensor oriented for mode-1
        MTTKRP, this is ``F`` in the paper's equations: the number of
        distinct ``(i, k)`` pairs.
        """
        slice_mode = check_mode(slice_mode, self.order)
        fiber_mode = check_mode(fiber_mode, self.order)
        if slice_mode == fiber_mode:
            raise ShapeError("slice mode and fiber mode must differ")
        pairs = self.indices[:, slice_mode] * self.shape[fiber_mode] + self.indices[
            :, fiber_mode
        ]
        # Distinct pairs counted on one in-place sort (np.unique costs
        # about three times as much).
        pairs.sort()
        return int(pairs.size and 1 + np.count_nonzero(pairs[1:] != pairs[:-1]))

    # ------------------------------------------------------------------
    # conversion / comparison
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ndarray.  Only sensible for small tensors;
        used by the test suite to validate kernels against ``einsum``."""
        total = np.prod([float(s) for s in self.shape])
        if total > 5e7:
            raise ShapeError(
                f"refusing to densify a tensor with {total:.3g} entries"
            )
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        flat = np.ravel_multi_index(tuple(self.indices.T), self.shape)
        np.add.at(dense.reshape(-1), flat, self.values)
        return dense

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "COOTensor":
        """Build a COO tensor from a dense array, dropping exact zeros.

        float32/float64 arrays keep their dtype; other dtypes are coerced
        to the canonical value dtype.
        """
        array = np.asarray(array)
        array = np.asarray(array, dtype=value_dtype_of(array))
        coords = np.nonzero(array)
        indices = np.stack(coords, axis=1).astype(INDEX_DTYPE)
        return cls(array.shape, indices, array[coords], validate=False)

    @classmethod
    def from_arrays(
        cls,
        shape: Sequence[int],
        mode_indices: Iterable[np.ndarray],
        values: np.ndarray,
    ) -> "COOTensor":
        """Build from per-mode 1-D index arrays (the Figure 1a layout)."""
        cols = [np.asarray(c, dtype=INDEX_DTYPE) for c in mode_indices]
        if not cols:
            raise ShapeError("need at least one mode index array")
        indices = np.stack(cols, axis=1)
        return cls(shape, indices, values)

    def equal(self, other: "COOTensor", *, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural+numeric equality after canonical sort/dedup of both."""
        if self.shape != other.shape:
            return False
        a = self.deduplicate()
        b = other.deduplicate()
        if a.nnz != b.nnz:
            return False
        return bool(
            np.array_equal(a.indices, b.indices)
            and np.allclose(a.values, b.values, rtol=rtol, atol=atol)
        )

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"COOTensor(shape={dims}, nnz={self.nnz})"
