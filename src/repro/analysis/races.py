"""Symbolic race detector for blocked MTTKRP schedules (rules RS201/RS202).

The paper's blocking techniques are only safe to parallelize when
concurrent tasks write **disjoint rows of the mode-n output factor**:
every nonzero of block ``(a, b, c)`` writes output rows inside the
block's mode-``n`` interval, so the write-set of a block is known
*statically* from the grid boundaries — no execution needed.  This module
computes those write-sets for every schedule shape the library produces
(mode-block grids, thread slice partitions, distributed decompositions)
and proves disjointness, or reports exactly which task pairs collide —
the pairs only privatized accumulators (SPLATT-style per-task partials +
reduction, the paper's Section VI fold) would make safe.

Wired into :class:`repro.exec.ParallelExecutor`,
:func:`repro.perf.parallel.parallel_predict_time` and
:func:`repro.dist.mttkrp.distributed_mttkrp` so unsafe schedules are
rejected before they run or the time model trusts them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import Diagnostic
from repro.util.errors import ScheduleError
from repro.util.validation import check_mode

#: Cap on the number of conflicting pairs enumerated in reports; the
#: all-pairs count is quadratic and the first few pairs carry the message.
MAX_REPORTED_CONFLICTS = 20


@dataclass(frozen=True)
class TaskWriteSet:
    """The output-mode rows one parallel task writes: the half-open
    interval ``[start, stop)``."""

    task: str
    start: int
    stop: int

    def overlap(self, other: "TaskWriteSet") -> "tuple[int, int, int] | None":
        """``(lo, hi, n_shared)`` of the overlap with another task, or
        ``None`` when the write-sets are disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if lo >= hi:
            return None
        return lo, hi, hi - lo


@dataclass(frozen=True)
class Conflict:
    """Two tasks whose write-sets intersect."""

    a: str
    b: str
    start: int
    stop: int
    n_shared_rows: int


@dataclass
class RaceReport:
    """Verdict on one proposed parallel schedule."""

    mode: int
    tasks: list[TaskWriteSet]
    conflicts: list[Conflict]
    #: Total conflicting pairs (may exceed ``len(conflicts)`` when capped).
    n_conflict_pairs: int = 0

    @property
    def safe(self) -> bool:
        """True when every pair of tasks writes disjoint rows."""
        return self.n_conflict_pairs == 0

    def diagnostics(self, file: str = "<schedule>") -> list[Diagnostic]:
        """Render the verdict as ``repro check`` diagnostics."""
        diags: list[Diagnostic] = []
        out_blocks = {t.start for t in self.tasks}
        if len(self.tasks) > 1 and len(out_blocks) == 1 and self.conflicts:
            diags.append(
                Diagnostic(
                    "RS202",
                    file,
                    0,
                    0,
                    f"all {len(self.tasks)} parallel tasks write the same "
                    f"mode-{self.mode} row range "
                    f"[{self.tasks[0].start}, {self.tasks[0].stop})",
                    hint="parallelize over the output-mode block axis, or use "
                    "privatized accumulators with a reduction",
                )
            )
        for c in self.conflicts:
            diags.append(
                Diagnostic(
                    "RS201",
                    file,
                    0,
                    0,
                    f"tasks {c.a} and {c.b} both write mode-{self.mode} rows "
                    f"[{c.start}, {c.stop}) ({c.n_shared_rows} shared row(s))",
                    hint="serialize the pair, privatize the accumulator and "
                    "reduce, or re-block so output ranges are disjoint",
                )
            )
        if self.n_conflict_pairs > len(self.conflicts):
            extra = self.n_conflict_pairs - len(self.conflicts)
            diags.append(
                Diagnostic(
                    "RS201",
                    file,
                    0,
                    0,
                    f"... and {extra} more conflicting task pair(s)",
                    hint="run with fewer tasks to see the full list",
                )
            )
        return diags

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.safe:
            return (
                f"schedule safe: {len(self.tasks)} task(s) write disjoint "
                f"mode-{self.mode} row ranges"
            )
        return (
            f"schedule UNSAFE: {self.n_conflict_pairs} conflicting pair(s) "
            f"across {len(self.tasks)} task(s); privatized accumulators or "
            f"serialization required"
        )


def detect_conflicts(
    tasks: Sequence[TaskWriteSet], limit: int = MAX_REPORTED_CONFLICTS
) -> tuple[list[Conflict], int]:
    """All-pairs overlap test over interval-sorted tasks.

    Returns the first ``limit`` conflicts plus the total pair count.
    Sorting by start bound keeps the scan near-linear for disjoint
    schedules (each task only compares against successors that start
    before it ends).
    """
    order = sorted(range(len(tasks)), key=lambda i: (tasks[i].start, tasks[i].stop))
    conflicts: list[Conflict] = []
    total = 0
    for pos, i in enumerate(order):
        ti = tasks[i]
        for j in order[pos + 1 :]:
            tj = tasks[j]
            if tj.start >= ti.stop:
                break
            hit = ti.overlap(tj)
            if hit is None:
                continue
            total += 1
            if len(conflicts) < limit:
                lo, hi, n = hit
                conflicts.append(Conflict(ti.task, tj.task, lo, hi, n))
    return conflicts, total


def check_schedule(
    tasks: Sequence[TaskWriteSet], mode: int
) -> RaceReport:
    """Prove disjointness of a task list, or report the collisions."""
    conflicts, total = detect_conflicts(tasks)
    return RaceReport(
        mode=mode, tasks=list(tasks), conflicts=conflicts, n_conflict_pairs=total
    )


def verify_safe(
    tasks: Sequence[TaskWriteSet], mode: int, context: str
) -> RaceReport:
    """Raise :class:`ScheduleError` unless the schedule is disjoint.

    This is the rejection hook the time model and distributed driver call
    before trusting a schedule.
    """
    report = check_schedule(tasks, mode)
    if not report.safe:
        first = report.conflicts[0]
        raise ScheduleError(
            f"{context}: {report.n_conflict_pairs} parallel task pair(s) write "
            f"overlapping mode-{mode} output rows (e.g. {first.a} and {first.b} "
            f"share rows [{first.start}, {first.stop})); privatized accumulators "
            f"or a disjoint re-blocking are required"
        )
    return report


# ----------------------------------------------------------------------
# Write-set builders for every schedule shape the library produces.
# ----------------------------------------------------------------------

def write_sets_for_grid(
    grid, mode: int, parallel: str = "blocks"
) -> list[TaskWriteSet]:
    """Write-sets of a :class:`~repro.blocking.grid.BlockGrid` schedule.

    ``parallel="blocks"`` models one task per grid block (the hazardous
    naive parallelization: blocks differing only in non-output modes share
    their whole output interval).  ``parallel="output"`` models one task
    per output-mode block index — the safe axis, since each interval then
    has exactly one writer.
    """
    mode = check_mode(mode, grid.order)
    bounds = grid.boundaries[mode]
    if parallel == "output":
        return [
            TaskWriteSet(
                task=f"out-block {c}", start=int(bounds[c]), stop=int(bounds[c + 1])
            )
            for c in range(grid.block_counts[mode])
        ]
    if parallel != "blocks":
        raise ValueError(f"parallel must be 'blocks' or 'output', got {parallel!r}")
    tasks = []
    for flat in range(grid.n_blocks):
        coords = grid.block_coords(flat)
        c = coords[mode]
        tasks.append(
            TaskWriteSet(
                task=f"block{coords}", start=int(bounds[c]), stop=int(bounds[c + 1])
            )
        )
    return tasks


def write_sets_for_boundaries(
    boundaries: "np.ndarray | Sequence[int]", label: str = "thread"
) -> list[TaskWriteSet]:
    """Write-sets of a slice partition (``partition_rows`` /
    ``greedy_slice_partition`` boundaries, length ``T + 1``)."""
    bounds = np.asarray(boundaries)
    return [
        TaskWriteSet(
            task=f"{label} {t}", start=int(bounds[t]), stop=int(bounds[t + 1])
        )
        for t in range(bounds.shape[0] - 1)
    ]


def write_sets_for_decomposition(decomp, mode: int) -> list[TaskWriteSet]:
    """Write-sets of a medium-grained distributed decomposition: each
    process writes its block's mode-``mode`` chunk of the output factor.

    Processes sharing an output chunk (the ``r x s`` slab) necessarily
    conflict — that is *by design*, resolved by the fold reduce-scatter;
    :func:`verify_fold_covers_conflicts` checks the fold grouping actually
    covers every conflicting pair.
    """
    mode = check_mode(mode, 3)
    return [
        TaskWriteSet(
            task=f"rank{coords}",
            start=int(block.bounds[mode][0]),
            stop=int(block.bounds[mode][1]),
        )
        for coords, block in sorted(decomp.blocks.items())
    ]


def verify_fold_covers_conflicts(decomp, mode: int) -> RaceReport:
    """Check a distributed schedule's conflicts are exactly the ones the
    fold privatizes.

    Every conflicting pair must sit in the same output-axis slab (equal
    coordinate on the grid axis that partitions ``mode``): those partials
    are reduce-scattered, so the race is resolved by privatization.  A
    conflict *across* slabs would be folded nowhere — corrupted output —
    so it raises :class:`ScheduleError`.
    """
    tasks = write_sets_for_decomposition(decomp, mode)
    # Uncapped pair enumeration: a cross-slab conflict hiding past the
    # report cap would silently corrupt the fold.
    conflicts, total = detect_conflicts(tasks, limit=len(tasks) * len(tasks))
    report = RaceReport(
        mode=mode, tasks=tasks, conflicts=conflicts, n_conflict_pairs=total
    )
    axis = decomp.axis_of_mode(mode)
    slab_of = {
        f"rank{coords}": int(coords[axis]) for coords in decomp.blocks
    }
    for c in report.conflicts:
        if slab_of[c.a] != slab_of[c.b]:
            raise ScheduleError(
                f"distributed schedule: processes {c.a} and {c.b} write "
                f"overlapping mode-{mode} rows [{c.start}, {c.stop}) but sit in "
                f"different output slabs — the fold never reduces them"
            )
    return report
