"""Execution sanitizer (rules SZ501-SZ504, SZ506): instrumented kernel runs.

The static passes prove what a *plan* promises; this pass observes what a
*kernel* actually does.  :func:`sanitized_execute` wraps any registered
kernel's ``execute`` with guarded ndarray subclasses that record every
output-row write and every factor-row gather, then checks:

* SZ501 — observed writes (and nonzero output rows, which also catch
  ``np.add.at``-style writes that bypass ``__setitem__``) are a subset of
  the plan's declared :meth:`~repro.kernels.base.Plan.write_set`.
* SZ502 — every integer gather is in bounds for the array it indexes.
  Negative indices are flagged too: numpy would wrap them silently, and
  a sparse index is never legitimately negative.
* SZ503/SZ504 — no NaN/Inf in the output when every input was finite.
* SZ506 — the observed factor-row footprint (gather counts and distinct
  rows) matches :func:`repro.machine.traffic.predicted_footprint`.
  Rank strips and mode blocks gather through views of the guarded
  factors, so every shipped kernel is observed.  A kernel that gathers
  from private copies is invisible to the guards; when a factor saw no
  gathers at all the comparison is skipped rather than reported.

The instrumentation is opt-in and costs one Python call per (chunked)
numpy operation — nothing in the normal execution path changes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.util.validation import VALUE_DTYPE

#: Cap on reported out-of-bounds gather events per array.
MAX_OOB_EVENTS = 5


class _Tracker:
    """Write/read recorder for one root (C-contiguous, 2-D) array.

    Views of the root (row ranges, column strips) share its buffer; a
    guarded view locates itself by data-pointer offset, so recorded rows
    are always *global* rows of the root.  Arrays whose buffer lies
    outside the root span (copies, ufunc results that inherited the
    guard) are ignored.
    """

    def __init__(
        self, root: np.ndarray, label: str, *, track_writes: bool, track_reads: bool
    ) -> None:
        self.label = label
        self.track_writes = track_writes
        self.track_reads = track_reads
        self.addr = int(root.__array_interface__["data"][0])
        self.nbytes = int(root.nbytes)
        self.row_stride = int(root.strides[0])
        self.itemsize = int(root.itemsize)
        self.n_rows = int(root.shape[0])
        self.written = np.zeros(self.n_rows, dtype=bool)
        self.touched = np.zeros(self.n_rows, dtype=bool)
        self.gather_accesses = 0
        self.oob_events: list[tuple[int, int, int, int]] = []

    # -- geometry ------------------------------------------------------
    def _base_row(self, arr: np.ndarray) -> "int | None":
        """Root row index of ``arr``'s first element, or None if ``arr``
        does not alias the root buffer."""
        if self.nbytes == 0 or arr.size == 0 or self.row_stride <= 0:
            return None
        a = int(arr.__array_interface__["data"][0])
        if a < self.addr or a >= self.addr + self.nbytes:
            return None
        return (a - self.addr) // self.row_stride

    def _is_row_selector(self, arr: np.ndarray) -> bool:
        """Does axis 0 of ``arr`` step over *rows* of the root?  A 1-D
        row slice (``A[i]``) steps over columns instead."""
        if arr.ndim >= 2:
            return True
        if arr.ndim == 1 and arr.size > 1:
            return int(arr.strides[0]) >= self.row_stride
        return False

    def _resolve_rows(
        self, arr: np.ndarray, key
    ) -> "np.ndarray | None":
        """Global root rows selected by ``key`` on ``arr`` (bounds
        already checked/recorded for integer-array keys)."""
        base = self._base_row(arr)
        if base is None:
            return None
        if not self._is_row_selector(arr):
            return np.array([base])
        n = int(arr.shape[0])
        row_key = key[0] if isinstance(key, tuple) and len(key) > 0 else key
        if isinstance(key, tuple) and len(key) == 0:
            row_key = Ellipsis
        if row_key is Ellipsis or (
            isinstance(row_key, slice)
            and row_key == slice(None)
        ):
            local = np.arange(n)
        elif isinstance(row_key, slice):
            local = np.arange(*row_key.indices(n))
        elif isinstance(row_key, (int, np.integer)):
            local = np.array([int(row_key) % n if -n <= row_key < n else int(row_key)])
        elif isinstance(row_key, np.ndarray) and row_key.dtype.kind in "iu":
            flat = row_key.reshape(-1)
            self._record_bounds(flat, n)
            local = np.where(flat < 0, flat + n, flat)
            local = local[(local >= 0) & (local < n)]
        elif isinstance(row_key, np.ndarray) and row_key.dtype.kind == "b":
            local = np.flatnonzero(row_key.reshape(-1)[:n])
        else:
            # Unknown selector: be conservative, assume every row.
            local = np.arange(n)
        return local + base

    def _record_bounds(self, idx: np.ndarray, n: int) -> None:
        """SZ502 bookkeeping: indices < 0 (silent numpy wrap) or >= n."""
        if idx.size == 0:
            return
        lo = int(idx.min())
        hi = int(idx.max())
        if lo < 0 or hi >= n:
            bad = int(((idx < 0) | (idx >= n)).sum())
            if len(self.oob_events) < MAX_OOB_EVENTS:
                self.oob_events.append((bad, lo, hi, n))

    # -- recording -----------------------------------------------------
    def record_write(self, arr: np.ndarray, key, value) -> None:
        rows = self._resolve_rows(arr, key)
        if rows is None or rows.size == 0:
            return
        if (
            np.isscalar(value)
            and not isinstance(value, str)
            and float(value) == 0.0
            and rows.size == self.n_rows
        ):
            # The documented alloc_output zero-fill of a reused buffer.
            return
        rows = rows[(rows >= 0) & (rows < self.n_rows)]
        self.written[rows] = True

    def record_read(self, arr: np.ndarray, key) -> None:
        row_key = key[0] if isinstance(key, tuple) and len(key) > 0 else key
        if not (isinstance(row_key, np.ndarray) and row_key.dtype.kind in "iu"):
            return  # only gathers count toward the footprint
        base = self._base_row(arr)
        if base is None or not self._is_row_selector(arr):
            return
        n = int(arr.shape[0])
        flat = row_key.reshape(-1)
        self._record_bounds(flat, n)
        self.gather_accesses += int(flat.size)
        local = np.where(flat < 0, flat + n, flat)
        local = local[(local >= 0) & (local < n)]
        rows = local + base
        rows = rows[(rows >= 0) & (rows < self.n_rows)]
        self.touched[rows] = True


class GuardedArray(np.ndarray):
    """ndarray subclass that reports element access to a :class:`_Tracker`.

    The tracker rides along through views via ``__array_finalize__``;
    derived arrays with fresh buffers keep the reference but fail the
    tracker's aliasing check, so they record nothing.
    """

    _repro_tracker: "_Tracker | None" = None

    def __array_finalize__(self, obj) -> None:
        if obj is not None and self._repro_tracker is None:
            self._repro_tracker = getattr(obj, "_repro_tracker", None)

    def __getitem__(self, key):
        t = self._repro_tracker
        if t is not None and t.track_reads:
            try:
                t.record_read(self, key)
            except Exception:  # instrumentation must never change results
                pass
        return super().__getitem__(key)

    def __setitem__(self, key, value) -> None:
        t = self._repro_tracker
        if t is not None and t.track_writes:
            try:
                t.record_write(self, key, value)
            except Exception:
                pass
        super().__setitem__(key, value)


def _guard(
    array: np.ndarray, label: str, *, track_writes: bool, track_reads: bool
) -> tuple[GuardedArray, _Tracker]:
    # Preserve the supported float precisions so a float32 run stays
    # float32; everything else is normalized to float64.
    dt = array.dtype if array.dtype in (np.dtype(np.float32), VALUE_DTYPE) else VALUE_DTYPE
    base = np.ascontiguousarray(array, dtype=dt)
    tracker = _Tracker(
        base, label, track_writes=track_writes, track_reads=track_reads
    )
    guarded = base.view(GuardedArray)
    guarded._repro_tracker = tracker
    return guarded, tracker


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
@dataclass
class SanitizeReport:
    """Everything one instrumented execution observed."""

    diagnostics: list[Diagnostic]
    output: np.ndarray
    declared_write_set: tuple[tuple[int, int], ...]
    written_rows: int
    #: Per-factor observed gathers: label -> (accesses, distinct rows).
    gathers: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity diagnostic was raised."""
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def describe(self) -> str:
        n_err = sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)
        n_warn = len(self.diagnostics) - n_err
        parts = [
            f"sanitized execute: {self.written_rows} row(s) written within "
            f"{len(self.declared_write_set)} declared interval(s), "
            f"{n_err} error(s), {n_warn} warning(s)"
        ]
        for label, (acc, distinct) in sorted(self.gathers.items()):
            parts.append(f"  {label}: {acc} gather(s) over {distinct} distinct row(s)")
        return "\n".join(parts)


def _mask_from_intervals(
    intervals: Sequence[tuple[int, int]], n: int
) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in intervals:
        mask[max(0, int(lo)) : min(n, int(hi))] = True
    return mask


def _plan_value_arrays(plan) -> list[np.ndarray]:
    """The nonzero-value arrays a plan carries (a tree plan's per block,
    a COO plan's own), for the finite-inputs precondition of
    SZ503/SZ504."""
    out = [block.tree.vals for block in getattr(plan, "blocks", ())]
    vals = getattr(plan, "vals", None)
    if isinstance(vals, np.ndarray):
        out.append(vals)
    return out


def _diag(rule: str, message: str, hint: str = "", *, file: str, line: int = 0) -> Diagnostic:
    return Diagnostic(rule=rule, file=file, line=line, col=0, message=message, hint=hint)


# ----------------------------------------------------------------------
# the sanitizer
# ----------------------------------------------------------------------
def sanitized_execute(
    kernel,
    plan,
    factors: Sequence[np.ndarray],
    *,
    file: str = "<sanitize>",
) -> SanitizeReport:
    """Run ``kernel.execute(plan, factors)`` under instrumentation and
    return the observed diagnostics (rules SZ501-SZ504, SZ506).

    ``kernel`` is a :class:`~repro.kernels.base.Kernel` instance or a
    registered kernel name.  Factors are guarded for reads, the output
    buffer for writes; the kernel itself runs unmodified.
    """
    from repro.kernels.base import get_kernel

    if isinstance(kernel, str):
        kernel = get_kernel(kernel)

    mode = plan.mode
    n_rows = int(plan.shape[mode])
    rank = None
    guarded_factors: list[np.ndarray] = []
    factor_trackers: dict[int, _Tracker] = {}
    for m, f in enumerate(factors):
        if m == mode or f is None:
            guarded_factors.append(f)
            continue
        g, t = _guard(f, f"factor[{m}]", track_writes=False, track_reads=True)
        guarded_factors.append(g)
        factor_trackers[m] = t
        rank = g.shape[1] if g.ndim == 2 else rank

    inputs_finite = all(
        np.isfinite(np.asarray(f)).all()
        for m, f in enumerate(factors)
        if m != mode and f is not None
    ) and all(np.isfinite(v).all() for v in _plan_value_arrays(plan))

    # Kernel.execute accepts an out buffer only in the shared factor
    # dtype (float32 stays float32; alloc_output raises otherwise), so
    # the sanitizer's own out buffer follows the guarded factors.
    factor_dtypes = {
        np.asarray(f).dtype
        for m, f in enumerate(guarded_factors)
        if m != mode and f is not None
    }
    out_dtype = factor_dtypes.pop() if len(factor_dtypes) == 1 else VALUE_DTYPE
    out_buffer = np.zeros((n_rows, rank if rank else 1), dtype=out_dtype)
    guarded_out, out_tracker = _guard(
        out_buffer, "output", track_writes=True, track_reads=False
    )

    result = kernel.execute(plan, guarded_factors, out=guarded_out)
    result_arr = np.asarray(result)

    diags: list[Diagnostic] = []

    # SZ501 — writes within the declared write-set.  Nonzero output rows
    # count as writes too: np.add.at and raw ufunc stores bypass
    # __setitem__, but they cannot produce nonzeros outside their rows.
    declared = tuple(
        plan.write_set()
        if hasattr(plan, "write_set")
        else ((0, n_rows),)
    )
    declared_mask = _mask_from_intervals(declared, n_rows)
    observed_mask = out_tracker.written.copy()
    if result_arr.shape[:1] == (n_rows,):
        observed_mask |= np.any(result_arr != 0.0, axis=tuple(range(1, result_arr.ndim)))
    offending = np.flatnonzero(observed_mask & ~declared_mask)
    if offending.size:
        sample = ", ".join(str(int(r)) for r in offending[:8])
        diags.append(
            _diag(
                "SZ501",
                f"{offending.size} output row(s) written outside the declared "
                f"write-set (rows {sample}{', ...' if offending.size > 8 else ''})",
                "the kernel writes rows its plan does not own — with a "
                "parallel schedule this is a silent race",
                file=file,
            )
        )

    # SZ502 — gather bounds (factors and output fancy writes).
    for tracker in [out_tracker, *factor_trackers.values()]:
        for bad, lo, hi, n in tracker.oob_events:
            diags.append(
                _diag(
                    "SZ502",
                    f"{tracker.label}: {bad} gather index(es) outside [0, {n}) "
                    f"(observed range [{lo}, {hi}])"
                    + (
                        "; negative indices wrap silently in numpy"
                        if lo < 0
                        else ""
                    ),
                    "sparse indices must be validated before execution",
                    file=file,
                )
            )

    # SZ503/SZ504 — NaN/Inf emergence from finite inputs.
    if inputs_finite and result_arr.dtype.kind == "f":
        if np.isnan(result_arr).any():
            diags.append(
                _diag(
                    "SZ503",
                    f"{int(np.isnan(result_arr).sum())} NaN value(s) emerged "
                    "from finite inputs",
                    file=file,
                )
            )
        if np.isinf(result_arr).any():
            diags.append(
                _diag(
                    "SZ504",
                    f"{int(np.isinf(result_arr).sum())} Inf value(s) emerged "
                    "from finite inputs (overflow in accumulation?)",
                    file=file,
                )
            )

    # SZ506 — observed footprint vs the analytic traffic model.
    gathers: dict[str, tuple[int, int]] = {}
    for m, tracker in factor_trackers.items():
        gathers[f"factor[{m}]"] = (
            tracker.gather_accesses,
            int(tracker.touched.sum()),
        )
    if rank is not None:
        diags += _check_footprint(plan, rank, factor_trackers, file=file)

    return SanitizeReport(
        diagnostics=diags,
        output=result_arr,
        declared_write_set=declared,
        written_rows=int(out_tracker.written.sum()),
        gathers=gathers,
    )


def _check_footprint(
    plan, rank: int, factor_trackers: "dict[int, _Tracker]", *, file: str
) -> list[Diagnostic]:
    from repro.machine.traffic import predicted_footprint

    pred = predicted_footprint(plan, rank)
    out: list[Diagnostic] = []
    for m, predicted_accesses, predicted_distinct, label in (
        (plan.inner_mode, pred.b_accesses, pred.b_distinct_max, "B (inner)"),
        (plan.fiber_mode, pred.c_accesses, pred.c_distinct_max, "C (fiber)"),
    ):
        tracker = factor_trackers.get(m)
        if tracker is None or tracker.gather_accesses == 0:
            # The kernel gathered from private copies: nothing observable.
            continue
        observed = tracker.gather_accesses
        if observed != predicted_accesses:
            out.append(
                _diag(
                    "SZ506",
                    f"{label}: observed {observed} gather(s), traffic model "
                    f"predicts {predicted_accesses} "
                    f"({pred.n_strips} strip(s))",
                    "the analytic model and the kernel disagree about the "
                    "access pattern — one of them is wrong",
                    file=file,
                )
            )
        distinct = int(tracker.touched.sum())
        if distinct > predicted_distinct:
            out.append(
                _diag(
                    "SZ506",
                    f"{label}: observed {distinct} distinct row(s), traffic "
                    f"model bounds the footprint by {predicted_distinct}",
                    "block_stats under-reports the distinct rows this kernel "
                    "touches",
                    file=file,
                )
            )
    return out
