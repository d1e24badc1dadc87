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
from repro.kernels.csf_mttkrp import CSFPlan
from repro.machine.spec import MachineSpec
from repro.tensor.csf import CSFTensor
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


def _phase_blocks(plan: Plan) -> "list[tuple[CSFTensor, tuple[int, int, int]]]":
    """(tree, (out_off, inner_off, fiber_off)) per block of a 3-mode
    tree plan."""
    if not isinstance(plan, CSFPlan) or len(plan.shape) != 3:
        raise ConfigError(
            f"cannot trace a {len(plan.shape)}-mode {type(plan).__name__}"
        )
    return [
        (
            block.tree,
            (
                block.bounds[plan.mode][0],
                block.bounds[plan.inner_mode][0],
                block.bounds[plan.fiber_mode][0],
            ),
        )
        for block in plan.blocks
    ]


def _phase_trace(
    tree: CSFTensor,
    offsets: tuple[int, int, int],
    row_lines: int,
    line_bytes: int,
    bases: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Trace of one (strip, block) phase.  See module docstring for the
    access order being reproduced."""
    rows, fibers = tree.levels
    nnz = tree.nnz
    n_fib = fibers.n_nodes
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
    b_rows = tree.leaf_fids + inner_off
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
    c_rows = fibers.fids + fiber_off
    fib_mat[:, 1 : 1 + row_lines] = (
        bases["C"] + c_rows[:, None] * row_lines + np.arange(row_lines)[None, :]
    )
    fib_tag[:, 1 : 1 + row_lines] = STRUCTURES["C"]
    fiber_len = np.diff(fibers.fptr)
    a_rows = np.repeat(rows.fids, np.diff(rows.fptr)) + out_off
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
    fib_out = (fibers.fptr[1:] * per_nz + fib_positions * per_fib)[
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
        for tree, offsets in blocks:
            trace, tags = _phase_trace(
                tree, offsets, row_lines, line_bytes, strip_bases
            )
            pieces.append(trace)
            tag_pieces.append(tags)
    if not pieces:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(pieces), np.concatenate(tag_pieces)
