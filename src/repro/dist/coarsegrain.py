"""Coarse-grained distributed MTTKRP — the DFacTo/SALS-style baseline.

The paper's related work: "DFacTo and SALS use coarse-grained
distribution, in which only one tensor mode is partitioned across MPI
processes and each process owns a set of contiguous slices of the
tensor."  The scheme is simple — each process owns an output-mode slab
and computes its output rows with no folding — but it pays two costs the
medium-grained scheme avoids:

* the *other* factors must be fully replicated, so after each mode's
  update the new factor is allgathered in full (volume ``I_m * R * 8``
  per sweep and mode, independent of ``p``);
* updating a different mode needs the tensor partitioned along *that*
  mode, so a CPD keeps one tensor copy per mode.

This module provides the scheme as a comparison baseline; the benchmark
``decomposition_comparison`` reproduces the literature's
motivation for medium-grained (and the paper's 4D extension on top).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.blocking.grid import clamp_block_counts
from repro.dist.comm import SimCluster
from repro.dist.costmodel import NetworkModel, infiniband_edr
from repro.dist.mediumgrain import greedy_slice_partition
from repro.dist.mttkrp import DistMTTKRPResult
from repro.kernels.base import factor_dtype
from repro.machine.spec import MachineSpec
from repro.perf.model import predict_time, prepare_plan
from repro.tensor.coo import COOTensor
from repro.util.validation import check_mode, check_rank, require


@dataclass
class CoarseGrainDecomposition:
    """Output-mode slabs: process ``p`` owns rows
    ``boundaries[p]:boundaries[p+1]`` and all nonzeros falling in them."""

    mode: int
    boundaries: np.ndarray
    blocks: list[COOTensor]
    tensor_shape: tuple[int, ...]

    @property
    def n_procs(self) -> int:
        """Number of processes."""
        return len(self.blocks)

    def nnz_per_process(self) -> list[int]:
        """Load vector."""
        return [b.nnz for b in self.blocks]


def coarse_grain_decompose(
    tensor: COOTensor, n_procs: int, mode: int = 0
) -> CoarseGrainDecomposition:
    """Partition one mode into nnz-balanced contiguous slabs."""
    mode = check_mode(mode, tensor.order)
    require(n_procs >= 1, "need at least one process")
    boundaries = greedy_slice_partition(tensor.slice_nnz(mode), n_procs)
    rows = tensor.indices[:, mode]
    blocks = []
    for p in range(n_procs):
        lo, hi = int(boundaries[p]), int(boundaries[p + 1])
        blocks.append(tensor.filter((rows >= lo) & (rows < hi)))
    return CoarseGrainDecomposition(
        mode=mode,
        boundaries=boundaries,
        blocks=blocks,
        tensor_shape=tensor.shape,
    )


def coarse_grained_mttkrp(
    decomp: CoarseGrainDecomposition,
    factors: list[np.ndarray],
    machine: MachineSpec,
    cluster: "SimCluster | None" = None,
    network: "NetworkModel | None" = None,
    *,
    local_block_counts=None,
    local_rank_blocking=None,
) -> DistMTTKRPResult:
    """One coarse-grained MTTKRP for the decomposition's mode.

    Local kernels run on whole slabs against the fully replicated other
    factors (no gather needed — that cost was paid when they were
    replicated); the epilogue allgathers the freshly computed output rows
    so every process again holds the full factor for the next mode.
    """
    mode = decomp.mode
    rank = check_rank(factors[(mode + 1) % len(decomp.tensor_shape)].shape[1])
    p = decomp.n_procs
    cluster = cluster or SimCluster(p, network or infiniband_edr())

    # Output follows the factor dtype (float32 runs stay float32).
    out = np.zeros((decomp.tensor_shape[mode], rank), dtype=factor_dtype(
        [f if m != mode else None for m, f in enumerate(factors)]
    ))
    compute_times = np.zeros(p)
    for proc, block in enumerate(decomp.blocks):
        lo, hi = int(decomp.boundaries[proc]), int(decomp.boundaries[proc + 1])
        if block.nnz:
            # Local slab in local output coordinates.
            local_shape = list(decomp.tensor_shape)
            local_shape[mode] = hi - lo
            local_idx = block.indices.copy()
            local_idx[:, mode] -= lo
            local = COOTensor(tuple(local_shape), local_idx, block.values, validate=False)
            counts = clamp_block_counts(local_block_counts, local.shape)
            plan = prepare_plan(local, mode, counts, local_rank_blocking)
            from repro.kernels.base import get_kernel

            local_factors = [None if m == mode else factors[m] for m in range(len(factors))]
            out[lo:hi] = get_kernel(plan.kernel_name).execute(plan, local_factors)
            t_local = predict_time(plan, rank, machine).total
        else:
            t_local = 0.0
        compute_times[proc] = t_local
        cluster.ledger.advance(proc, t_local)

    # Replicate the updated factor: ring allgather of the slab rows.
    buffers = [
        np.ascontiguousarray(out[int(decomp.boundaries[q]) : int(decomp.boundaries[q + 1])])
        for q in range(p)
    ]
    cluster.allgather(list(range(p)), buffers)

    return DistMTTKRPResult(
        output=out,
        total_time=cluster.ledger.makespan,
        comm_time=cluster.ledger.comm_time,
        compute_times=compute_times,
        comm_bytes=cluster.ledger.total_bytes,
        grid_label=f"coarse-{p}",
    )
