"""Kernel and Plan abstractions shared by every MTTKRP implementation.

A :class:`Kernel` is a *strategy* registered under a name (COO; the CSF
tree kernel's SPLATT, MB, RankB, MB+RankB, CSF and blocked-CSF presets;
any-mode CSF); a
:class:`Plan` is that strategy's prepared representation of one tensor
for one output mode.  Preparation (sorting, fiber compression, block
reorganization) happens once and is reused across the many MTTKRP calls of
a CP-ALS run — the paper relies on the same amortization when arguing the
blocking reorganization cost is negligible (Section V-A).

:class:`BlockStats` is the contract between kernels and the machine model:
each execution phase (a block; unblocked kernels have exactly one) is
summarized by its nonzero/fiber counts and the number of *distinct* factor
rows it touches.  Those distinct counts are per-phase working sets, which
is all the analytic cache model needs (DESIGN.md §3).

Two helpers run the one compiled loop, scipy's ``csr_matvecs``, which
releases the GIL.  :func:`fiber_sums` runs lines 5-7 of Algorithm 1
(``s += val * B[j]`` over each fiber), the CSR product ``S @ B`` with
``S = (vals, leaf_fids, fptr)`` of a CSF tree's leaf level.
:func:`segment_sums_into` runs line 9 (fibers added into their output
rows) and the tree kernels' other segmented sums, a unit-value CSR
product that accumulates in place.
The extension is loaded by file path, so ``scipy/__init__.py`` and
``scipy.sparse`` are never imported (:func:`load_csr_matvecs`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.metadata
import importlib.util
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.obs.tracer import current_tracer
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError, RegistrationError, ShapeError
from repro.util.validation import INDEX_DTYPE, VALUE_DTYPE, check_mode, check_rank

#: Bound on the temporary ``(nonzeros x rank)`` expansion used by the
#: vectorized kernels and by :meth:`KruskalTensor.innerprod`: chunks are
#: sized so scratch stays near this many elements (512 KiB of float64),
#: which keeps each chunk's products cache-resident instead of streaming
#: an ``nnz x R`` temporary through DRAM.  Kernel chunks end on output-row
#: (or fiber) boundaries, so kernel outputs do not depend on this value.
DEFAULT_SCRATCH_ELEMS = 1 << 16


def _sparsetools_path() -> "str | None":
    """File of scipy's compiled ``scipy.sparse._sparsetools`` extension,
    found without executing ``scipy/__init__.py``; ``None`` if absent."""
    spec = importlib.util.find_spec("scipy")
    roots = (spec.submodule_search_locations or []) if spec is not None else []
    for root in roots:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "sparse", "_sparsetools" + suffix)
            if os.path.isfile(path):
                return path
    return None


def load_csr_matvecs() -> Callable:
    """scipy's compiled ``csr_matvecs(n_row, n_col, n_vecs, Ap, Aj, Ax, X,
    Y)``, which computes ``Y += A @ X`` for a CSR matrix ``A`` and
    releases the GIL while it runs.

    The extension is loaded straight from its file, so neither
    ``scipy/__init__.py`` nor ``scipy.sparse`` runs (together about 200 ms
    and 22 MiB).  Raises :class:`ImportError` naming the installed scipy
    version when the file or the symbol is missing; there is no fallback.
    """
    path = _sparsetools_path()
    module: "ModuleType | None" = None
    if path is not None:
        # The module name must end in ``_sparsetools``: an extension's
        # init function is found by that last component.
        spec = importlib.util.spec_from_file_location(
            "repro.kernels._sparsetools", path
        )
        if spec is not None and spec.loader is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    matvecs = getattr(module, "csr_matvecs", None)
    if matvecs is None:
        try:
            version = importlib.metadata.version("scipy")
        except importlib.metadata.PackageNotFoundError:
            version = "not installed"
        raise ImportError(
            f"scipy's compiled csr_matvecs was not found (scipy {version}, "
            f"extension {path or 'missing'}); the MTTKRP kernels need the "
            "scipy>=1.9 this package declares"
        )
    return matvecs


_CSR_MATVECS = load_csr_matvecs()


def seal_pointers(ptr: np.ndarray, n: int, where: str) -> None:
    """Check that ``ptr`` is a monotone partition of ``n`` entries (it
    starts at 0, never decreases and ends at ``n``), then make it
    read-only.  Raises :class:`ShapeError` naming ``where`` otherwise."""
    if ptr.shape[0] == 0 or ptr[0] != 0 or ptr[-1] != n or np.any(ptr[1:] < ptr[:-1]):
        raise ShapeError(
            f"{where}: pointers are not a monotone partition of the {n} "
            "entries below them"
        )
    ptr.flags.writeable = False


def seal_fibers(
    ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray, extent: int, where: str
) -> None:
    """Check that ``(ptr, idx, vals)`` is a CSR matrix with ``extent``
    columns, then make the three arrays read-only.

    :func:`fiber_sums` and :func:`segment_sums_into` hand plan arrays to
    compiled code that does no bounds checks, so every plan runs this
    (and :func:`seal_pointers` on its other pointer arrays) once when it
    is built: ``ptr`` is a monotone partition of the nonzeros, and every
    leaf index lies in ``[0, extent)``.  Raises :class:`ShapeError`
    naming ``where`` (the block and the mode) otherwise.
    """
    nnz = idx.shape[0]
    if vals.shape[0] != nnz:
        raise ShapeError(f"{where}: {vals.shape[0]} values for {nnz} leaf indices")
    seal_pointers(ptr, nnz, where)
    if nnz and (idx.min() < 0 or idx.max() >= extent):
        raise ShapeError(
            f"{where}: leaf index outside [0, {extent}) "
            f"(observed [{idx.min()}, {idx.max()}])"
        )
    idx.flags.writeable = False
    vals.flags.writeable = False


def fiber_sums(
    ptr: np.ndarray,
    idx: np.ndarray,
    vals: np.ndarray,
    X: np.ndarray,
    n_cols: int,
    bounds: "Sequence[int] | None" = None,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Lines 5-7 of Algorithm 1 as one compiled CSR product.

    ``S = (vals, idx, ptr)`` has one row per fiber and ``n_cols`` columns:
    ``S[f] @ X`` is the sum of ``vals[t] * X[idx[t]]`` over fiber ``f``'s
    nonzeros, accumulated in nonzero order.  For each consecutive pair
    ``f0, f1`` of ``bounds`` (default: all fibers in one piece) this
    yields ``(f0, f1, S[f0:f1] @ X)``, a fresh array of ``X``'s dtype.

    The arrays must have passed :func:`seal_fibers` with the same
    ``n_cols``; here only O(1) checks run.  ``X`` is copied once when it
    is not C-contiguous (a rank strip's column view), and the nonzero
    values are cast one chunk at a time (float32 factors stay float32).

    Compiled code reads ``X``'s buffer directly, past ``__getitem__``.  So
    when ``X`` is not a plain ndarray (the sanitizer's guarded views), the
    exact index stream is first replayed as ``X[idx]`` on the caller's
    view: rules SZ502 and SZ506 then observe every row the loop reads.
    """
    if X.ndim != 2 or X.shape[0] != n_cols:
        raise ShapeError(
            f"operand has shape {X.shape}, the plan's leaf mode has {n_cols} rows"
        )
    if X.dtype not in SUPPORTED_FACTOR_DTYPES:
        raise ShapeError(f"operand must be float32 or float64, got {X.dtype}")
    if vals.dtype.kind != "f" or idx.dtype != ptr.dtype:
        raise ShapeError(
            f"CSR arrays have dtypes {ptr.dtype}/{idx.dtype}/{vals.dtype}"
        )
    if bounds is None:
        bounds = (0, ptr.shape[0] - 1)
    if type(X) is not np.ndarray:
        X[idx[ptr[bounds[0]] : ptr[bounds[-1]]]]
    X = np.ascontiguousarray(X)
    n_vecs = X.shape[1]
    for f0, f1 in zip(bounds[:-1], bounds[1:]):
        lo, hi = int(ptr[f0]), int(ptr[f1])
        Y = np.zeros((f1 - f0, n_vecs), dtype=X.dtype)
        _CSR_MATVECS(
            f1 - f0, n_cols, n_vecs,
            ptr[f0 : f1 + 1] - lo, idx[lo:hi],
            vals[lo:hi].astype(X.dtype, copy=False), X, Y,
        )
        yield f0, f1, Y


def unit_csr(n: int, dtype: "np.dtype | type") -> tuple[np.ndarray, np.ndarray]:
    """Column indices ``0..n-1`` and ``n`` ones of ``dtype``: the body of
    the unit-value CSR matrix :func:`segment_sums_into` runs.  A caller
    allocates it once per execute, sized to its largest ``X``."""
    return np.arange(n, dtype=INDEX_DTYPE), np.ones(n, dtype=dtype)


def segment_sums_into(
    ptr: np.ndarray,
    X: np.ndarray,
    Y: np.ndarray,
    unit: tuple[np.ndarray, np.ndarray],
) -> None:
    """``Y[r] += X[ptr[r]] + ... + X[ptr[r+1] - 1]`` for every row ``r``,
    as one compiled CSR product with unit values (:func:`unit_csr`).

    This is line 9 of Algorithm 1 (fibers into output rows) and every
    other segmented sum of the tree kernels.  Each row adds its segment
    to its old value left to right, in place: no temporary, and the same
    bits whether ``Y`` starts at zero or holds earlier blocks' sums.
    ``ptr`` must start at 0, end at ``len(X)`` and never decrease
    (plan arrays are checked once, when the plan is built); here only
    O(1) checks run.  ``X`` must be C-contiguous; ``Y`` may be a strided
    view (a rank strip), which the compiled call copies in and back.

    Compiled code writes ``Y``'s buffer directly, past ``__setitem__``.
    So when ``Y`` is not a plain ndarray (the sanitizer's guarded
    output), the rows that own a segment are self-assigned first: rule
    SZ501 then observes exactly the rows the loop writes.
    """
    cols, ones = unit
    n_rows = ptr.shape[0] - 1
    if (
        X.ndim != 2
        or Y.shape != (n_rows, X.shape[1])
        or ptr[0] != 0
        or ptr[-1] != X.shape[0]
        or cols.shape[0] < X.shape[0]
        or cols.dtype != ptr.dtype
        or ones.dtype != X.dtype
        or Y.dtype != X.dtype
        or not X.flags.c_contiguous
    ):
        raise ShapeError(
            f"segment sums of {X.shape} {X.dtype} rows into {Y.shape} "
            f"{Y.dtype} need {n_rows} pointer segments covering every row"
        )
    if type(Y) is not np.ndarray:
        owners = np.flatnonzero(ptr[1:] != ptr[:-1])
        Y[owners] = Y[owners]
    n = X.shape[0]
    _CSR_MATVECS(n_rows, n, X.shape[1], ptr, cols[:n], ones[:n], X, Y)


@dataclass(frozen=True)
class BlockStats:
    """Structural summary of one execution phase (one tensor block).

    The machine model derives working sets, reuse counts, and access-
    popularity profiles from these fields; see
    :mod:`repro.machine.traffic`.
    """

    #: Block coordinates in the mode grid; ``(0, 0, 0)`` when unblocked.
    coords: tuple[int, ...]
    #: Nonzeros processed in this phase.
    nnz: int
    #: Non-empty fibers in this phase (equals ``nnz`` for COO-style kernels).
    n_fibers: int
    #: Distinct output-mode rows written (working set of ``A``).
    distinct_out: int
    #: Distinct inner-mode rows read (working set of ``B`` — the expensive
    #: stream identified in Section IV).
    distinct_inner: int
    #: Distinct fiber-mode rows read (working set of ``C``).
    distinct_fiber: int
    #: Access counts per distinct inner row (one entry per distinct row,
    #: any order).  Real-world tensors are heavily skewed; the cache model
    #: keeps the hottest rows resident, which these histograms quantify.
    #: ``None`` falls back to a uniform-popularity model.
    inner_counts: "np.ndarray | None" = None
    #: Access counts per distinct fiber row (fibers touching each row).
    fiber_counts: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.nnz < 0 or self.n_fibers < 0:
            raise ConfigError("counts must be non-negative")
        if self.n_fibers > self.nnz:
            raise ConfigError(
                f"n_fibers ({self.n_fibers}) cannot exceed nnz ({self.nnz})"
            )
        if self.inner_counts is not None:
            if len(self.inner_counts) != self.distinct_inner:
                raise ConfigError("inner_counts length must equal distinct_inner")
            if int(np.sum(self.inner_counts)) != self.nnz:
                raise ConfigError("inner_counts must sum to nnz")
        if self.fiber_counts is not None:
            if len(self.fiber_counts) != self.distinct_fiber:
                raise ConfigError("fiber_counts length must equal distinct_fiber")
            if int(np.sum(self.fiber_counts)) != self.n_fibers:
                raise ConfigError("fiber_counts must sum to n_fibers")

    @classmethod
    def from_tree(
        cls, tree, coords: tuple[int, ...], distinct_out: "int | None" = None
    ) -> "BlockStats":
        """Build the full summary (including popularity histograms) from a
        CSF (sub-)tree: its leaves are the inner stream and its last
        internal level the fibers.  ``distinct_out`` defaults to the
        root's node count, the output rows of a root-mode kernel."""
        inner_hist = np.bincount(tree.leaf_fids)
        inner_counts = inner_hist[inner_hist > 0]
        last = tree.levels[-1]
        fiber_hist = np.bincount(last.fids)
        fiber_counts = fiber_hist[fiber_hist > 0]
        return cls(
            coords=coords,
            nnz=tree.nnz,
            n_fibers=last.n_nodes,
            distinct_out=(
                tree.levels[0].n_nodes if distinct_out is None else distinct_out
            ),
            distinct_inner=int(inner_counts.shape[0]),
            distinct_fiber=int(fiber_counts.shape[0]),
            inner_counts=inner_counts,
            fiber_counts=fiber_counts,
        )


class Plan(ABC):
    """A prepared MTTKRP computation for one tensor and output mode."""

    #: Name of the kernel that produced this plan.
    kernel_name: str
    #: The tensor's mode lengths.
    shape: tuple[int, ...]
    #: Output mode of the MTTKRP.
    mode: int
    #: Inner (per-nonzero) mode — rows of ``B`` in the paper's orientation.
    inner_mode: int
    #: Fiber-label mode — rows of ``C``.
    fiber_mode: int
    #: Rank-blocking configuration, set by the rank-stripped presets and
    #: read by the machine model; ``None`` means no rank blocking.
    rank_blocking: "object | None" = None

    @abstractmethod
    def block_stats(self) -> list[BlockStats]:
        """Per-phase structural summary for the machine model."""

    def strips(self, rank: int) -> list[tuple[int, int]]:
        """Half-open column ranges of the rank strips an execution runs:
        the rank blocking's, or one ``(0, rank)`` strip without one."""
        if self.rank_blocking is None:
            return [(0, rank)]
        return self.rank_blocking.strips(rank)  # type: ignore[attr-defined]

    @property
    def nnz(self) -> int:
        """Total nonzeros across all phases."""
        return sum(b.nnz for b in self.block_stats())

    @property
    def n_fibers(self) -> int:
        """Total fibers across all phases."""
        return sum(b.n_fibers for b in self.block_stats())

    def write_set(self) -> tuple[tuple[int, int], ...]:
        """Half-open global row intervals of the mode-``mode`` output this
        plan's kernel may write.

        The execution sanitizer checks observed writes against this
        declaration (rule SZ501).  The base default is the full output
        range; plans that know their structure override with something
        tighter (e.g. only rows that own fibers).
        """
        return ((0, int(self.shape[self.mode])),)

    def describe(self) -> str:
        """One-line human-readable summary."""
        blocks = self.block_stats()
        return (
            f"{self.kernel_name} plan: mode={self.mode}, {len(blocks)} block(s), "
            f"nnz={self.nnz}, fibers={self.n_fibers}"
        )


class Kernel(ABC):
    """An MTTKRP strategy.  Subclasses set :attr:`name` and implement
    :meth:`prepare` and :meth:`run`; :meth:`execute` is the one entry
    point and is not overridden."""

    name: str = "abstract"

    @abstractmethod
    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> Plan:
        """Build this kernel's prepared representation for one output mode."""

    @abstractmethod
    def run(self, plan: Plan, factors: Sequence[np.ndarray], A: np.ndarray) -> None:
        """Add the MTTKRP of ``plan`` into the zeroed output ``A``.

        ``factors`` have passed :func:`check_factors` (one shared float
        dtype, C-contiguous, ``None`` at the output mode) and ``A`` is
        the ``(I_mode, R)`` buffer :func:`alloc_output` returned, in
        that dtype.
        """

    def execute(
        self,
        plan: Plan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the MTTKRP.

        ``factors`` lists one ``(I_m, R)`` matrix per mode; the entry at the
        output mode may be ``None``.  Returns the ``(I_mode, R)`` result in
        the factors' dtype (``out`` if given, freshly allocated otherwise).

        With a tracer on, the call records one ``mttkrp`` span (with plan
        metadata) and the per-call ``kernel.*`` counters; with it off the
        hook costs one global load and one attribute test per call.
        """
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        A = alloc_output(out, plan.shape[plan.mode], rank, factor_dtype(factors))
        tracer = current_tracer()
        if not tracer.enabled:
            self.run(plan, factors, A)
            return A
        stats = plan.block_stats()
        nnz = sum(b.nnz for b in stats)
        n_fibers = sum(b.n_fibers for b in stats)
        distinct_out = sum(b.distinct_out for b in stats)
        with tracer.span(
            "mttkrp",
            kernel=self.name,
            plan=type(plan).__name__,
            mode=int(plan.mode),
            shape=list(plan.shape),
            n_blocks=len(stats),
            nnz=nnz,
            n_fibers=n_fibers,
        ):
            self.run(plan, factors, A)
        itemsize = int(A.dtype.itemsize)
        tracer.count("kernel.calls", 1)
        tracer.count("kernel.nonzeros", nnz)
        tracer.count("kernel.fibers", n_fibers)
        # One B-row gather per nonzero plus one C-row gather per fiber —
        # the access streams of Section IV's pressure-point analysis.
        tracer.count("kernel.gathers", nnz + n_fibers)
        tracer.count(
            "kernel.factor_bytes",
            (nnz + n_fibers + distinct_out) * rank * itemsize,
        )
        return A

    def mttkrp(
        self,
        tensor: COOTensor,
        factors: Sequence[np.ndarray],
        mode: int,
        **params: object,
    ) -> np.ndarray:
        """One-shot convenience: ``prepare`` then ``execute``."""
        plan = self.prepare(tensor, mode, **params)
        return self.execute(plan, factors)

    def __repr__(self) -> str:
        return f"<Kernel {self.name}>"


def reject_unknown_params(
    kernel_name: str,
    params: "dict[str, object]",
    known: Sequence[str] = (),
) -> None:
    """Raise :class:`ConfigError` when ``prepare`` received parameters it
    does not understand.

    Every kernel's ``prepare`` takes ``**params``, binds its named
    parameters, and hands the leftovers here — a typo'd ``block_count``
    fails loudly instead of silently preparing an unblocked plan.
    """
    if not params:
        return
    unknown = ", ".join(sorted(params))
    accepted = ", ".join(sorted(known)) or "none"
    raise ConfigError(
        f"kernel {kernel_name!r} got unknown prepare parameter(s): "
        f"{unknown}; accepted: {accepted}"
    )


def intervals_from_rows(rows: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Collapse a sorted, unique row-index vector into maximal half-open
    intervals — the compact ``write_set`` form of a row footprint."""
    rows = np.asarray(rows)
    if rows.size == 0:
        return ()
    breaks = np.flatnonzero(np.diff(rows) > 1)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [rows.size - 1]))
    return tuple(
        (int(rows[s]), int(rows[e]) + 1) for s, e in zip(starts, ends)
    )


def merge_intervals(
    intervals: "Sequence[tuple[int, int]]",
) -> tuple[tuple[int, int], ...]:
    """Union of half-open intervals as sorted maximal disjoint intervals."""
    ivs = sorted((int(lo), int(hi)) for lo, hi in intervals if hi > lo)
    merged: list[tuple[int, int]] = []
    for lo, hi in ivs:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


#: Factor precisions the kernels honor end-to-end; anything else numeric
#: is promoted to :data:`~repro.util.validation.VALUE_DTYPE`.
SUPPORTED_FACTOR_DTYPES: tuple[np.dtype, ...] = (
    np.dtype(np.float32),
    np.dtype(np.float64),
)


def check_factors(
    factors: Sequence[np.ndarray],
    shape: Sequence[int],
    mode: int,
) -> tuple[list[np.ndarray], int]:
    """Validate factor matrices against a tensor shape for one MTTKRP.

    float32 and float64 factors keep their precision (every kernel's
    output matches the factor dtype — see :func:`factor_dtype`); other
    numeric dtypes are promoted to float64.  Mixing float32 and float64
    factors in one call raises :class:`ConfigError` rather than silently
    upcasting.  Returns the factors as C-contiguous arrays (``None`` kept
    at the output mode) and the shared rank ``R``.
    """
    order = len(shape)
    mode = check_mode(mode, order)
    if len(factors) != order:
        raise ShapeError(f"need {order} factor matrices, got {len(factors)}")
    rank: int | None = None
    shared_dtype: np.dtype | None = None
    coerced: list[np.ndarray] = []
    for m, f in enumerate(factors):
        if m == mode:
            coerced.append(None)  # type: ignore[arg-type]
            continue
        arr = np.asanyarray(f)
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.number):
            raise ShapeError(
                f"factor {m} must be a numeric array, got dtype {arr.dtype}"
            )
        if np.issubdtype(arr.dtype, np.complexfloating):
            raise ShapeError(
                f"factor {m} is complex ({arr.dtype}); MTTKRP factors are real"
            )
        target = arr.dtype if arr.dtype in SUPPORTED_FACTOR_DTYPES else VALUE_DTYPE
        if shared_dtype is None:
            shared_dtype = target
        elif target != shared_dtype:
            raise ConfigError(
                f"factor {m} is {target} but earlier factors are "
                f"{shared_dtype}; mixed-precision factors would silently "
                "upcast — cast them to one dtype first"
            )
        # C-contiguous at the shared precision so the gather-heavy inner
        # loops see contiguous rows.  An already-conforming array passes
        # through untouched — ndarray subclasses (the sanitizer's guarded
        # factors) keep their type.
        if arr.dtype == target and arr.flags.c_contiguous:
            f = arr
        else:
            f = np.ascontiguousarray(arr, dtype=target)
        if f.ndim != 2 or f.shape[0] != shape[m]:
            raise ShapeError(
                f"factor {m} must have shape ({shape[m]}, R), got {f.shape}"
            )
        if rank is None:
            rank = f.shape[1]
        elif f.shape[1] != rank:
            raise ShapeError("factor matrices disagree on rank")
        coerced.append(f)
    if rank is None:
        raise ShapeError("MTTKRP needs at least two modes")
    return coerced, check_rank(rank)


def factor_dtype(factors: Sequence[np.ndarray]) -> np.dtype:
    """Shared dtype of already-checked factors (the output dtype contract:
    every kernel's result uses the dtype :func:`check_factors` settled on)."""
    for f in factors:
        if f is not None:
            return np.dtype(f.dtype)
    raise ShapeError("no non-output factors to infer a dtype from")


def alloc_output(
    out: np.ndarray | None,
    n_rows: int,
    rank: int,
    dtype: "np.dtype | type" = VALUE_DTYPE,
) -> np.ndarray:
    """Return a zeroed ``(n_rows, rank)`` output buffer of ``dtype``,
    reusing ``out``."""
    dt = np.dtype(dtype)
    if out is None:
        return np.zeros((n_rows, rank), dtype=dt)
    if out.shape != (n_rows, rank):
        raise ShapeError(
            f"out buffer has shape {out.shape}, expected {(n_rows, rank)}"
        )
    if out.dtype != dt:
        raise ShapeError(f"out buffer must be {dt}, got {out.dtype}")
    out[...] = 0.0
    return out


#: Registry of kernel strategies by name; populated by the implementing
#: modules at import time (see :mod:`repro.kernels`).
KERNELS: dict[str, Kernel] = {}


def register_kernel(kernel: Kernel, *, replace: bool = False) -> Kernel:
    """Add a kernel instance to the global registry.

    Re-registering the *same* instance is a no-op (modules may be
    re-imported); a *different* kernel claiming an existing name raises
    :class:`RegistrationError` unless ``replace=True`` — silent
    overwrites previously let a misnamed kernel shadow a working one.
    Anything that is not a :class:`Kernel` instance (a kernel class
    passed where an instance belongs) raises :class:`RegistrationError`.
    """
    if not isinstance(kernel, Kernel):
        raise RegistrationError(
            f"register_kernel needs a Kernel instance, got {kernel!r} "
            "(register Cls(), not the class Cls)"
        )
    name = getattr(kernel, "name", None)
    if not isinstance(name, str) or not name or name == "abstract":
        raise RegistrationError(
            f"kernel {kernel!r} must define a non-empty class-level `name` "
            f"(got {name!r})"
        )
    existing = KERNELS.get(name)
    if existing is not None and existing is not kernel and not replace:
        raise RegistrationError(
            f"kernel name {name!r} is already registered by "
            f"{type(existing).__name__}; pass replace=True to override"
        )
    KERNELS[name] = kernel
    return kernel


def get_kernel(name: str) -> Kernel:
    """Look up a registered kernel: ``coo``, ``splatt``, ``csf``,
    ``csf-blocked``, ``mb``, ``rankb``, or ``mb+rankb``."""
    key = name.lower()
    if key not in KERNELS:
        raise ConfigError(f"unknown kernel {name!r}; available: {sorted(KERNELS)}")
    return KERNELS[key]
