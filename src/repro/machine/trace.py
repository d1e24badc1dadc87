"""Cache-line access-trace generation for MTTKRP plans.

Replays the memory behaviour of Algorithm 1 (and its blocked variants) as
a sequence of cache-line addresses, tagged by the structure being touched.
Per nonzero the kernel reads ``val``, ``j_index`` and a row of ``B``; per
fiber it reads ``k_index``/``k_pointer`` and a row of ``C`` and
read-modify-writes a row of ``A`` — in exactly that order.  The
accumulator is omitted: it is a single row reused every iteration and by
construction never leaves L1 (the paper's Section IV-B makes the same
assumption), so it contributes load-unit pressure, not cache traffic.

Each structure lives in its own disjoint line-address region, rows are
laid out contiguously, and rank strips address *re-stacked* strip copies
(Section V-B's layout).  The resulting trace feeds the exact simulator
(:mod:`repro.machine.cache`), which the test suite uses to validate the
analytic traffic model.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.base import Plan
from repro.kernels.splatt_mttkrp import SplattPlan
from repro.machine.spec import MachineSpec
from repro.tensor.splatt import SplattTensor
from repro.util.errors import ConfigError
from repro.util.validation import check_rank

#: Structure ids used to tag trace entries.
STRUCTURES = {
    "val": 0,
    "jidx": 1,
    "fiber": 2,  # k_index + k_pointer stream
    "B": 3,  # inner-mode factor (per nonzero)
    "C": 4,  # fiber-mode factor (per fiber)
    "A": 5,  # output factor (per fiber)
}

#: Region size reserved per structure, in lines.  Large enough that no
#: realistic validation tensor overflows its region.
_REGION_LINES = 1 << 40


def _phase_blocks(plan: Plan) -> "list[tuple[SplattTensor, tuple[int, int, int]]]":
    """(splatt, (out_off, inner_off, fiber_off)) per block of a
    SPLATT-family plan."""
    if not isinstance(plan, SplattPlan):
        raise ConfigError(f"cannot trace plan type {type(plan).__name__}")
    return [
        (
            block.splatt,
            (
                block.bounds[plan.mode][0],
                block.bounds[plan.inner_mode][0],
                block.bounds[plan.fiber_mode][0],
            ),
        )
        for block in plan.blocked.blocks
    ]


def _phase_trace(
    splatt: SplattTensor,
    offsets: tuple[int, int, int],
    row_lines: int,
    line_bytes: int,
    bases: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Trace of one (strip, block) phase.  See module docstring for the
    access order being reproduced."""
    nnz = splatt.nnz
    n_fib = splatt.n_fibers
    if nnz == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    out_off, inner_off, fiber_off = offsets

    per_nz = 2 + row_lines  # val, jidx, B row
    per_fib = 1 + 2 * row_lines  # fiber stream word, C row, A row

    # Per-nonzero accesses, one row of the matrix per nonzero.
    nz_mat = np.empty((nnz, per_nz), dtype=np.int64)
    nz_tag = np.empty((nnz, per_nz), dtype=np.int64)
    positions = np.arange(nnz, dtype=np.int64)
    nz_mat[:, 0] = bases["val"] + positions * 8 // line_bytes
    nz_tag[:, 0] = STRUCTURES["val"]
    nz_mat[:, 1] = bases["jidx"] + positions * 8 // line_bytes
    nz_tag[:, 1] = STRUCTURES["jidx"]
    b_rows = splatt.jidx + inner_off
    nz_mat[:, 2:] = (
        bases["B"] + b_rows[:, None] * row_lines + np.arange(row_lines)[None, :]
    )
    nz_tag[:, 2:] = STRUCTURES["B"]

    # Per-fiber accesses.
    fib_mat = np.empty((n_fib, per_fib), dtype=np.int64)
    fib_tag = np.empty((n_fib, per_fib), dtype=np.int64)
    fib_positions = np.arange(n_fib, dtype=np.int64)
    fib_mat[:, 0] = bases["fiber"] + fib_positions * 16 // line_bytes
    fib_tag[:, 0] = STRUCTURES["fiber"]
    c_rows = splatt.fiber_kidx + fiber_off
    fib_mat[:, 1 : 1 + row_lines] = (
        bases["C"] + c_rows[:, None] * row_lines + np.arange(row_lines)[None, :]
    )
    fib_tag[:, 1 : 1 + row_lines] = STRUCTURES["C"]
    fiber_len = np.diff(splatt.fiber_ptr)
    a_rows = (
        np.repeat(np.arange(splatt.n_rows, dtype=np.int64), splatt.fibers_per_row())
        + out_off
    )
    fib_mat[:, 1 + row_lines :] = (
        bases["A"] + a_rows[:, None] * row_lines + np.arange(row_lines)[None, :]
    )
    fib_tag[:, 1 + row_lines :] = STRUCTURES["A"]

    # Interleave: fiber f's nonzero accesses, then its fiber accesses.
    total = nnz * per_nz + n_fib * per_fib
    trace = np.empty(total, dtype=np.int64)
    tags = np.empty(total, dtype=np.int64)
    fiber_of_nz = np.repeat(fib_positions, fiber_len)
    nz_out = (positions * per_nz + fiber_of_nz * per_fib)[:, None] + np.arange(per_nz)
    fib_out = (splatt.fiber_ptr[1:] * per_nz + fib_positions * per_fib)[
        :, None
    ] + np.arange(per_fib)
    trace[nz_out.ravel()] = nz_mat.ravel()
    tags[nz_out.ravel()] = nz_tag.ravel()
    trace[fib_out.ravel()] = fib_mat.ravel()
    tags[fib_out.ravel()] = fib_tag.ravel()
    return trace, tags


def mttkrp_trace(
    plan: Plan, rank: int, machine: MachineSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Generate the full cache-line trace of one MTTKRP execution.

    Returns ``(line_addresses, structure_tags)``; feed them to
    :meth:`repro.machine.cache.CacheHierarchy.run_trace`.

    Rank strips iterate outermost (Algorithm 2) and address disjoint
    re-stacked strip regions of each factor, so inter-strip reuse of
    factor lines is (correctly) impossible while the tensor streams are
    revisited every strip.
    """
    rank = check_rank(rank)
    line_bytes = machine.line_bytes
    blocks = _phase_blocks(plan)
    strips = plan.strips(rank)

    bases = {
        name: sid * _REGION_LINES for sid, name in enumerate(STRUCTURES)
    }

    pieces: list[np.ndarray] = []
    tag_pieces: list[np.ndarray] = []
    for strip_idx, (lo, hi) in enumerate(strips):
        row_lines = max(1, -(-(hi - lo) * 8 // line_bytes))
        # Re-stacked strips occupy disjoint factor regions.
        strip_bases = dict(bases)
        for f in ("B", "C", "A"):
            strip_bases[f] = bases[f] + strip_idx * (_REGION_LINES // 64)
        for splatt, offsets in blocks:
            trace, tags = _phase_trace(
                splatt, offsets, row_lines, line_bytes, strip_bases
            )
            pieces.append(trace)
            tag_pieces.append(tags)
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pieces), np.concatenate(tag_pieces)
