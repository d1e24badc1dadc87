"""Distributed CP-ALS over the simulated cluster.

The full application loop of distributed SPLATT: every ALS mode update
runs the distributed MTTKRP of :mod:`repro.dist.mttkrp`, the small
``R x R`` Gram algebra is replicated (as in real medium-grained CPD,
where every process keeps all Gram matrices — they are tiny), and factor
normalization happens on the assembled rows.

Numerics are exact: with the same initialization, the distributed run
produces the same fit trajectory as shared-memory :func:`repro.cpd.als
.cp_als` (the test suite asserts this), while the communication ledger
and per-rank compute charges yield the modeled time per iteration —
Table III's per-MTTKRP experiment extended to whole decompositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.blocking.rank import RankBlocking
from repro.cpd.core import ALSState
from repro.cpd.ktensor import KruskalTensor
from repro.dist.comm import SimCluster
from repro.dist.costmodel import NetworkModel, infiniband_edr
from repro.dist.grid import ProcessGrid
from repro.dist.mediumgrain import MediumGrainDecomposition, medium_grain_decompose
from repro.dist.mttkrp import _run_mttkrp, _verify_schedule
from repro.machine.spec import MachineSpec
from repro.tensor.coo import COOTensor
from repro.util.errors import DistributionError


@dataclass
class DistALSResult:
    """Outcome of a distributed CP-ALS run."""

    model: KruskalTensor
    fits: list[float] = field(default_factory=list)
    n_iters: int = 0
    converged: bool = False
    #: Wall time of the whole run (modeled makespan for the sim backend,
    #: summed measured per-call makespans for the process backend).
    total_time: float = 0.0
    #: Total bytes moved by collectives across the run (ledger formulas).
    comm_bytes: float = 0.0
    #: Which substrate executed the run.
    backend: str = "sim"
    #: Bytes actually copied out of peer segments (process backend only).
    measured_comm_bytes: "float | None" = None

    @property
    def final_fit(self) -> float:
        """Fit of the returned model."""
        return self.fits[-1] if self.fits else 0.0


def distributed_cp_als(
    tensor: COOTensor,
    rank: int,
    grid: ProcessGrid,
    machine: MachineSpec,
    *,
    n_iters: int = 20,
    tol: float = 1e-5,
    rank_groups: int = 1,
    network: "NetworkModel | None" = None,
    local_block_counts: "Sequence[int] | None" = None,
    local_rank_blocking: "RankBlocking | None" = None,
    init: "str | Sequence[np.ndarray]" = "random",
    seed: "int | None" = 0,
    backend: str = "sim",
) -> DistALSResult:
    """Run CP-ALS with every MTTKRP distributed over the cluster.

    ``grid`` describes one rank group's 3D layout; ``rank_groups > 1``
    adds the 4D rank dimension.  One medium-grained decomposition is
    computed and verified up front, then reused for all modes and
    iterations (factor chunk ownership follows each mode's slabs); each
    rank builds its local plan for a mode once per run.

    ``backend="process"`` shards every MTTKRP (and the Gram allreduce)
    across real worker processes through one shared-memory cluster that
    lives for the whole run; the factor trajectory is bitwise identical
    to the sim backend's.
    """
    if backend not in ("sim", "process"):
        raise DistributionError(
            f"backend must be 'sim' or 'process', got {backend!r}"
        )
    state = ALSState(
        tensor, rank, n_iters=n_iters, tol=tol, init=init, seed=seed
    )
    full_grid = ProcessGrid(grid.dims, rank_groups)
    cluster = SimCluster(full_grid.n_ranks, network or infiniband_edr())
    decomp: MediumGrainDecomposition = medium_grain_decompose(
        tensor, grid, seed=seed
    )
    _verify_schedule(decomp, rank_groups, state.rank)

    shm = None
    total_time = 0.0
    measured_bytes = 0.0
    ledger_bytes = 0.0
    if backend == "process":
        from repro.dist.procbackend import gram_allreduce, required_capacity
        from repro.dist.shmcomm import ShmCluster

        shm = ShmCluster(
            full_grid.n_ranks,
            required_capacity(
                decomp, state.rank, rank_groups, np.dtype(state.dtype).itemsize
            ),
        )

    try:
        for _ in range(n_iters):
            for mode in range(3):
                res = _run_mttkrp(
                    decomp,
                    state.factors,
                    mode,
                    machine,
                    cluster if backend == "sim" else None,
                    rank_groups=rank_groups,
                    local_block_counts=local_block_counts,
                    local_rank_blocking=local_rank_blocking,
                    backend=backend,
                    shm=shm,
                )
                state.update_mode(mode, res.output)
                # The Gram update is an allreduce of an R x R matrix in
                # the real implementation; charge it (sim) or actually
                # move it (process).
                share = state.grams[mode] / full_grid.n_ranks
                if backend == "sim":
                    group = list(range(full_grid.n_ranks))
                    cluster.allreduce(group, [share] * full_grid.n_ranks)
                else:
                    lb, mb, secs = gram_allreduce(shm, full_grid, share)
                    ledger_bytes += lb
                    measured_bytes += mb
                    total_time += secs
                    total_time += res.total_time
                    ledger_bytes += res.comm_bytes
                    measured_bytes += res.measured_comm_bytes or 0.0
            if state.fit_step(tensor):
                break
    finally:
        if shm is not None:
            shm.close()

    if backend == "sim":
        total_time = cluster.ledger.makespan
        ledger_bytes = cluster.ledger.total_bytes
    return DistALSResult(
        model=state.model,
        fits=state.fits,
        n_iters=len(state.fits),
        converged=state.converged,
        total_time=total_time,
        comm_bytes=ledger_bytes,
        backend=backend,
        measured_comm_bytes=measured_bytes if backend == "process" else None,
    )
