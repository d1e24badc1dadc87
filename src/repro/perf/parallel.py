"""Intra-socket parallel MTTKRP model.

The paper's single-processor numbers use 10 cores with two SMT threads
each; SPLATT's OpenMP parallelization assigns each thread a contiguous
range of *output slices*, which needs no atomics (each output row has
one writer) but inherits whatever load imbalance the slice histogram
carries.  This module models that execution:

* :func:`partition_rows` — the nnz-balanced greedy slice partition
  (shared with the distributed medium-grained decomposition), vetted and
  returned as per-thread ``(lo, hi)`` output row ranges;
* :func:`parallel_predict_time` — per-thread time from the machine model
  with socket resources (bandwidth, load units, flops) split across
  threads and per-core caches private; the result is the makespan.

Every partition is vetted by the plan verifier's tiling proof
(:func:`repro.analysis.plans.verify_boundaries`, PL401/PL402) before the
time model or the executor trusts it: the per-thread output row ranges
must cover the output mode exactly once (each output row has one writer
— the invariant SPLATT's slice parallelization relies on — and none is
left unwritten), or :class:`~repro.util.errors.ScheduleError` is raised.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.plans import boundaries_to_intervals, verify_boundaries
from repro.blocking.grid import clamp_block_counts
from repro.blocking.rank import RankBlocking
from repro.dist.mediumgrain import greedy_slice_partition
from repro.machine.spec import MachineSpec
from repro.perf.model import predict_time, prepare_plan
from repro.tensor.coo import COOTensor
from repro.util.errors import ScheduleError
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
) -> list[tuple[int, int]]:
    """Per-thread output row ranges ``(lo, hi)`` of the greedy
    nnz-balanced slice partition.

    At most one thread per output row is used.  The boundaries must tile
    the output mode exactly once (PL401/PL402), or
    :class:`~repro.util.errors.ScheduleError` is raised before anything
    runs or is predicted on them.
    """
    mode = check_mode(mode, tensor.order)
    n_rows = int(tensor.shape[mode])
    boundaries = greedy_slice_partition(
        tensor.slice_nnz(mode), min(int(n_threads), max(n_rows, 1))
    )
    diags = verify_boundaries(boundaries, n_rows, f"mode-{mode} thread partition")
    if diags:
        raise ScheduleError(
            "parallel MTTKRP schedule: "
            + "; ".join(f"{d.rule} {d.message}" for d in diags)
        )
    return boundaries_to_intervals(boundaries)


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
) -> ParallelTimeEstimate:
    """Model a threaded MTTKRP: slice-partition the output mode, build
    each thread's plan on its sub-tensor, and predict with the per-thread
    resource share.  ``core_machine`` is a single core's spec
    (e.g. ``power8(1)``), optionally cache-scaled for a stand-in.

    :func:`partition_rows` vets the partition before any time is
    predicted (:class:`~repro.util.errors.ScheduleError` on a gap or an
    overlap): an unsound schedule has no meaningful time.
    """
    rank = check_rank(rank)
    mode = check_mode(mode, tensor.order)
    ranges = partition_rows(tensor, mode, n_threads)
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

