"""Kernel and Plan abstractions shared by every MTTKRP implementation.

A :class:`Kernel` is a *strategy* registered under a name (COO; SPLATT and
its MB/RankB/MB+RankB presets; CSF and its blocked preset); a
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
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.obs.tracer import current_tracer
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError, RegistrationError, ShapeError
from repro.util.validation import VALUE_DTYPE, check_mode, check_rank

#: Bound on the temporary ``(nonzeros x rank)`` expansion used by the
#: vectorized kernels and by :meth:`KruskalTensor.innerprod`: chunks are
#: sized so scratch stays near this many elements (512 KiB of float64),
#: which keeps each chunk's products cache-resident instead of streaming
#: an ``nnz x R`` temporary through DRAM.  Kernel chunks end on output-row
#: (or fiber) boundaries, so kernel outputs do not depend on this value.
DEFAULT_SCRATCH_ELEMS = 1 << 16


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
    def from_splatt(cls, splatt, coords: tuple[int, ...]) -> "BlockStats":
        """Build the full summary (including popularity histograms) from a
        SPLATT-compressed (sub-)tensor."""
        inner_hist = np.bincount(splatt.jidx, minlength=0)
        inner_counts = inner_hist[inner_hist > 0]
        fiber_hist = np.bincount(splatt.fiber_kidx, minlength=0)
        fiber_counts = fiber_hist[fiber_hist > 0]
        return cls(
            coords=coords,
            nnz=splatt.nnz,
            n_fibers=splatt.n_fibers,
            distinct_out=int((splatt.fibers_per_row() > 0).sum()),
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


def _traced_execute(impl: Callable) -> Callable:
    """Wrap a kernel's ``execute`` with the observability hook.

    Applied automatically by :meth:`Kernel.__init_subclass__`, so every
    registered kernel emits one ``mttkrp`` span (with plan metadata) and
    per-call counters when a tracer is active — the subclasses keep their
    plain ``execute(self, plan, factors, out=None)`` bodies and the static
    kernel contract (KC104-KC106) untouched.  With the tracer disabled the
    wrapper costs one global load and one attribute test per call; it never
    runs per nonzero.
    """

    @functools.wraps(impl)
    def execute(self, plan, factors, out=None):  # type: ignore[no-untyped-def]
        tracer = current_tracer()
        if not tracer.enabled:
            return impl(self, plan, factors, out=out)
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
            result = impl(self, plan, factors, out=out)
        rank = int(result.shape[1])
        itemsize = int(result.dtype.itemsize)
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
        return result

    execute._obs_instrumented = True  # type: ignore[attr-defined]
    return execute


class Kernel(ABC):
    """An MTTKRP strategy.  Subclasses set :attr:`name` and implement
    :meth:`prepare` and :meth:`execute`."""

    name: str = "abstract"

    def __init_subclass__(cls, **kwargs: object) -> None:
        """Instrument each concrete ``execute`` with the tracing hook
        exactly once (idempotent under re-import and subclass chains)."""
        super().__init_subclass__(**kwargs)
        impl = cls.__dict__.get("execute")
        if impl is not None and not getattr(impl, "_obs_instrumented", False):
            cls.execute = _traced_execute(impl)  # type: ignore[method-assign]

    @abstractmethod
    def prepare(self, tensor: COOTensor, mode: int, **params: object) -> Plan:
        """Build this kernel's prepared representation for one output mode."""

    @abstractmethod
    def execute(
        self,
        plan: Plan,
        factors: Sequence[np.ndarray],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run the MTTKRP.

        ``factors`` lists one ``(I_m, R)`` matrix per mode; the entry at the
        output mode may be ``None``.  Returns the ``(I_mode, R)`` result
        (``out`` if given, freshly allocated otherwise).
        """

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

    def execute_parallel(
        self,
        tensor: COOTensor,
        factors: Sequence[np.ndarray],
        mode: int,
        *,
        n_threads: int = 2,
        backend: str = "thread",
        out: np.ndarray | None = None,
        **params: object,
    ) -> np.ndarray:
        """Shared-memory parallel MTTKRP via :mod:`repro.exec`.

        Partitions the output mode into nnz-balanced row ranges, prepares
        one sub-plan per worker, vets the schedule through the race
        detector, and executes the sub-plans concurrently into disjoint
        rows of one shared output buffer.  ``params`` are forwarded to
        :meth:`prepare` for each sub-plan.
        """
        # Imported lazily: repro.exec builds on the kernel registry, so a
        # module-level import would be circular.
        from repro.exec import ParallelExecutor

        with ParallelExecutor(n_threads=n_threads, backend=backend) as executor:
            parallel_plan = executor.prepare(
                tensor, mode, kernel=self.name, **params
            )
            return executor.execute(parallel_plan, factors, out=out)

    def __repr__(self) -> str:
        return f"<Kernel {self.name}>"


def reject_unknown_params(
    kernel_name: str,
    params: "dict[str, object]",
    known: Sequence[str] = (),
) -> None:
    """Raise :class:`ConfigError` when ``prepare`` received parameters it
    does not understand.

    Every kernel's ``prepare`` keeps the ``**params`` catch-all the
    kernel contract requires (KC105), binds its named parameters, and
    hands the leftovers here — a typo'd ``block_count`` fails loudly
    instead of silently preparing an unblocked plan.
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
    """
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
