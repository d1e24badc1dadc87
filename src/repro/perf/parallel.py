"""Intra-socket parallel MTTKRP model.

The paper's single-processor numbers use 10 cores with two SMT threads
each; SPLATT's OpenMP parallelization assigns each thread a contiguous
range of *output slices*, which needs no atomics (each output row has
one writer) but inherits whatever load imbalance the slice histogram
carries.  This module models that execution:

* :func:`partition_rows` — the nnz-balanced greedy slice partition
  (shared with the distributed medium-grained decomposition);
* :func:`parallel_predict_time` — per-thread time from the machine model
  with socket resources (bandwidth, load units, flops) split across
  threads and per-core caches private; the result is the makespan;
* :func:`thread_scaling` — the thread-count sweep, quantifying how far
  imbalance and shared bandwidth bend the scaling curve.

Every schedule is vetted by the race detector
(:mod:`repro.analysis.races`) before the time model trusts it: the
per-thread output row ranges must be disjoint (each output row has one
writer — the invariant SPLATT's slice parallelization relies on), and an
overlapping ``thread_ranges`` override raises
:class:`~repro.util.errors.ScheduleError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.races import (
    verify_safe,
    write_sets_for_boundaries,
    write_sets_for_ranges,
)
from repro.blocking.grid import clamp_block_counts
from repro.blocking.rank import RankBlocking
from repro.dist.mediumgrain import greedy_slice_partition
from repro.machine.spec import MachineSpec
from repro.perf.model import predict_time, prepare_plan
from repro.tensor.coo import COOTensor
from repro.util.validation import check_mode, check_rank, require


def per_thread_machine(
    core_machine: MachineSpec,
    n_threads: int,
    *,
    socket_read_bandwidth: "float | None" = None,
    socket_write_bandwidth: "float | None" = None,
) -> MachineSpec:
    """The resource share one thread sees.

    ``core_machine`` describes a single core (compute and load units are
    private); memory bandwidth is the shared resource, so each thread
    gets ``min(its core's sustainable bandwidth, socket / n_threads)`` —
    the mechanism that bends thread scaling once the socket's links
    saturate (~4 threads on the paper's POWER8 figures).
    """
    require(n_threads >= 1, "need at least one thread")
    read = core_machine.read_bandwidth
    write = core_machine.write_bandwidth
    if socket_read_bandwidth is not None:
        read = min(read, socket_read_bandwidth / n_threads)
    if socket_write_bandwidth is not None:
        write = min(write, socket_write_bandwidth / n_threads)
    if read == core_machine.read_bandwidth and write == core_machine.write_bandwidth:
        return core_machine
    return dataclasses.replace(
        core_machine,
        name=f"{core_machine.name} ({n_threads} threads sharing the socket)",
        read_bandwidth=read,
        write_bandwidth=write,
    )


def partition_rows(
    tensor: COOTensor, mode: int, n_threads: int
) -> np.ndarray:
    """Output-slice boundaries per thread (length ``n_threads + 1``)."""
    mode = check_mode(mode, tensor.order)
    return greedy_slice_partition(tensor.slice_nnz(mode), n_threads)


@dataclass(frozen=True)
class ParallelTimeEstimate:
    """Makespan and balance of one threaded MTTKRP."""

    #: Per-thread predicted times.
    thread_times: tuple[float, ...]
    #: Nonzeros per thread.
    thread_nnz: tuple[int, ...]

    @property
    def makespan(self) -> float:
        """Completion time (slowest thread)."""
        return max(self.thread_times) if self.thread_times else 0.0

    @property
    def imbalance(self) -> float:
        """max/mean thread time (1.0 = perfectly balanced)."""
        if not self.thread_times:
            return 1.0
        mean = sum(self.thread_times) / len(self.thread_times)
        return self.makespan / mean if mean > 0 else 1.0


def parallel_predict_time(
    tensor: COOTensor,
    mode: int,
    rank: int,
    core_machine: MachineSpec,
    n_threads: int,
    *,
    socket_read_bandwidth: "float | None" = 75e9,
    socket_write_bandwidth: "float | None" = 35e9,
    block_counts: "Sequence[int] | None" = None,
    rank_blocking: "RankBlocking | None" = None,
    thread_ranges: "Sequence[tuple[int, int]] | None" = None,
) -> ParallelTimeEstimate:
    """Model a threaded MTTKRP: slice-partition the output mode, build
    each thread's plan on its sub-tensor, and predict with the per-thread
    resource share.  ``core_machine`` is a single core's spec
    (e.g. ``power8(1)``), optionally cache-scaled for a stand-in.

    ``thread_ranges`` overrides the greedy partition with explicit
    half-open output-row ranges per thread; the plan verifier rejects
    ranges that do not tile the output rows exactly once — gap, overlap,
    or out-of-bounds (rule PL407) — and the race detector re-checks
    overlap, both via :class:`~repro.util.errors.ScheduleError`, before
    any time is predicted: an unsafe schedule has no meaningful time.
    """
    from repro.analysis.plans import verify_thread_ranges
    from repro.util.errors import ScheduleError

    rank = check_rank(rank)
    mode = check_mode(mode, tensor.order)
    n_threads = int(n_threads)
    if thread_ranges is not None:
        ranges = [(int(lo), int(hi)) for lo, hi in thread_ranges]
        plan_diags = verify_thread_ranges(ranges, tensor.shape[mode])
        if plan_diags:
            raise ScheduleError(
                "thread_ranges do not tile the output rows: "
                + "; ".join(d.message for d in plan_diags[:3])
            )
        write_sets = write_sets_for_ranges(ranges, label="thread")
    else:
        boundaries = partition_rows(
            tensor, mode, min(n_threads, tensor.shape[mode])
        )
        ranges = [
            (int(boundaries[t]), int(boundaries[t + 1]))
            for t in range(boundaries.shape[0] - 1)
        ]
        write_sets = write_sets_for_boundaries(boundaries)
    verify_safe(write_sets, mode, "threaded MTTKRP schedule")
    n_threads = len(ranges)
    thread_machine = per_thread_machine(
        core_machine,
        n_threads,
        socket_read_bandwidth=socket_read_bandwidth,
        socket_write_bandwidth=socket_write_bandwidth,
    )

    rows = tensor.indices[:, mode]
    times: list[float] = []
    nnzs: list[int] = []
    for lo, hi in ranges:
        sel = (rows >= lo) & (rows < hi)
        sub = tensor.filter(sel)
        nnzs.append(sub.nnz)
        if sub.nnz == 0:
            times.append(0.0)
            continue
        counts = clamp_block_counts(block_counts, sub.shape)
        plan = prepare_plan(sub, mode, counts, rank_blocking)
        times.append(predict_time(plan, rank, thread_machine).total)
    return ParallelTimeEstimate(
        thread_times=tuple(times), thread_nnz=tuple(nnzs)
    )


def thread_scaling(
    tensor: COOTensor,
    mode: int,
    rank: int,
    core_machine: MachineSpec,
    thread_counts: Sequence[int] = (1, 2, 4, 8, 10, 20),
    **kwargs,
) -> list[dict]:
    """Sweep thread counts; rows carry makespan, speedup, imbalance."""
    base: "float | None" = None
    rows = []
    for t in thread_counts:
        est = parallel_predict_time(tensor, mode, rank, core_machine, t, **kwargs)
        if base is None:
            base = est.makespan
        rows.append(
            {
                "threads": int(t),
                "makespan_ms": round(est.makespan * 1e3, 4),
                "speedup": round(base / est.makespan, 2) if est.makespan else 0.0,
                "imbalance": round(est.imbalance, 3),
            }
        )
    return rows
