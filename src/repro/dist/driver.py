"""Strong-scaling experiment driver (Table III).

For every node count the driver runs three configurations, mirroring the
table's columns:

* **SPLATT** — medium-grained 3D decomposition, baseline local kernel;
* **ours 3D** — the same decomposition with the blocking-optimized local
  kernel (block sizes from the Section V-C heuristic);
* **ours 4D** — the rank-extended grid: ``t`` tensor replicas, each rank
  group computing an ``R/t`` strip with the blocked kernel.

Grid selection follows the paper: grid factors are matched to mode
lengths (Table III's ``64x2x1``-style grids follow Netflix's long user
mode), and ``t`` is chosen by modeled time over the divisors of ``p``
("we first determine an optimal partition count t along the rank").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.blocking.heuristic import select_blocking
from repro.blocking.rank import REGISTER_BLOCK_COLS
from repro.dist.comm import SimCluster
from repro.dist.costmodel import NetworkModel, infiniband_edr
from repro.dist.grid import ProcessGrid
from repro.dist.mediumgrain import medium_grain_decompose
from repro.dist.mttkrp import DistMTTKRPResult, distributed_mttkrp
from repro.machine.spec import MachineSpec
from repro.perf.model import ConfigPlanner
from repro.tensor.coo import COOTensor
from repro.util.rng import resolve_rng
from repro.util.validation import check_rank, require, value_dtype_of


def _prime_factors(n: int) -> list[int]:
    """Prime factorization, largest factors first."""
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return sorted(out, reverse=True)


def choose_grid(p: int, shape: Sequence[int]) -> tuple[int, int, int]:
    """Factor ``p`` into a 3D grid matched to the mode lengths.

    Greedy: assign each prime factor (largest first) to the mode with the
    most index space left per existing grid slice — reproducing the
    paper's Table III pattern of loading the long mode first (Netflix's
    ``64x2x1``) while cubic tensors get near-cubic grids (``4x4x8``).
    """
    require(p >= 1, "need at least one process")
    dims = [1, 1, 1]
    for f in _prime_factors(p):
        scores = [shape[m] / dims[m] for m in range(3)]
        m = int(np.argmax(scores))
        dims[m] *= f
    return tuple(dims)


def network_for_dataset(info, base: "NetworkModel | None" = None) -> NetworkModel:
    """Scale the interconnect consistently with a dataset stand-in.

    The stand-in shrinks per-rank compute by roughly the nonzero ratio
    and communication volume by the dimension ratio
    (``info.machine_scale``); the network's latency and bandwidth are
    re-scaled to preserve the paper's comm/compute balance (see
    :meth:`repro.dist.costmodel.NetworkModel.scaled`).
    """
    base = base or infiniband_edr()
    time_factor = info.standin_nnz / info.paper_nnz
    return base.scaled(time_factor=time_factor, volume_factor=info.machine_scale)


def choose_rank_groups(p: int, rank: int) -> list[int]:
    """Candidate ``t`` values for the 4D grid: divisors of ``p`` that
    leave every rank group a strip of at least one register block."""
    max_t = max(1, rank // REGISTER_BLOCK_COLS)
    return [t for t in range(1, p + 1) if p % t == 0 and t <= max_t]


@dataclass
class ScalingPoint:
    """One row of Table III for one data set."""

    nodes: int
    n_ranks: int
    splatt_time: float
    grid_3d: str
    time_3d: float
    grid_4d: str
    time_4d: float

    @property
    def best_ours(self) -> float:
        """Lowest of the 3D/4D blocked times (the paper's speedup basis)."""
        return min(self.time_3d, self.time_4d)

    @property
    def speedup(self) -> float:
        """Speedup of our best configuration over distributed SPLATT."""
        return self.splatt_time / self.best_ours if self.best_ours > 0 else 0.0


def _run_config(
    tensor: COOTensor,
    decomp,
    rank: int,
    machine: MachineSpec,
    network: NetworkModel,
    *,
    rank_groups: int = 1,
    local_block_counts=None,
    local_rank_blocking=None,
    factors=None,
    mode: int = 0,
) -> DistMTTKRPResult:
    grid = ProcessGrid(decomp.grid.dims, rank_groups)
    cluster = SimCluster(grid.n_ranks, network)
    return distributed_mttkrp(
        decomp,
        factors,
        mode,
        machine,
        cluster,
        rank_groups=rank_groups,
        local_block_counts=local_block_counts,
        local_rank_blocking=local_rank_blocking,
    )


def strong_scaling(
    tensor: COOTensor,
    rank: int,
    node_counts: Sequence[int],
    machine: MachineSpec,
    *,
    ranks_per_node: int = 2,
    network: "NetworkModel | None" = None,
    mode: int = 0,
    seed: int = 0,
    tune_local_blocking: bool = True,
) -> list[ScalingPoint]:
    """Run the Table III experiment for one tensor.

    ``machine`` is the per-process (one-socket) machine model;
    ``ranks_per_node = 2`` matches the paper's one-rank-per-socket setup.
    Local blocking for the "ours" configurations is tuned once per node
    count on a representative (rank-0) block via the Section V-C
    heuristic.
    """
    rank = check_rank(rank)
    network = network or infiniband_edr()
    rng = resolve_rng(seed)
    # Factors inherit the tensor's working dtype (float32 stays float32).
    factors = [
        np.ascontiguousarray(
            rng.standard_normal((n, rank)), dtype=value_dtype_of(tensor.values)
        )
        for n in tensor.shape
    ]

    points: list[ScalingPoint] = []
    for nodes in node_counts:
        p = nodes * ranks_per_node
        dims = choose_grid(p, tensor.shape)
        # Align grid axes with modes: the axis with the largest grid
        # factor partitions the longest mode, and so on.
        axis_order = np.argsort([-d for d in dims], kind="stable")
        mode_order = np.argsort([-s for s in tensor.shape], kind="stable")
        perm_list = [0, 0, 0]
        for position, axis in enumerate(axis_order):
            perm_list[int(axis)] = int(mode_order[position])
        perm = tuple(perm_list)
        grid3 = ProcessGrid(dims)
        decomp = medium_grain_decompose(tensor, grid3, seed=seed, mode_perm=perm)

        # Tune local blocking once, on the heaviest block.
        counts = rb = None
        if tune_local_blocking:
            heaviest = max(decomp.blocks.values(), key=lambda b: b.tensor.nnz)
            offsets = np.array([lo for lo, _ in heaviest.bounds])
            local = COOTensor(
                tuple(hi - lo for lo, hi in heaviest.bounds),
                heaviest.tensor.indices - offsets,
                heaviest.tensor.values,
                validate=False,
            )
            if local.nnz:
                evaluate = ConfigPlanner(local, mode).evaluator(rank, machine)
                choice = select_blocking(local, mode, rank, evaluate)
                counts, rb = choice.block_counts, choice.rank_blocking

        splatt = _run_config(
            tensor, decomp, rank, machine, network, factors=factors, mode=mode
        )
        ours3 = _run_config(
            tensor,
            decomp,
            rank,
            machine,
            network,
            factors=factors,
            mode=mode,
            local_block_counts=counts,
            local_rank_blocking=rb,
        )

        # 4D: pick t by modeled time over the divisor candidates.
        best4: "DistMTTKRPResult | None" = None
        best_label = "-"
        for t in choose_rank_groups(p, rank):
            if t == 1:
                continue
            dims4 = choose_grid(p // t, tensor.shape)
            grid4 = ProcessGrid(dims4)
            decomp4 = medium_grain_decompose(
                tensor, grid4, seed=seed, mode_perm=perm
            )
            res = _run_config(
                tensor,
                decomp4,
                rank,
                machine,
                network,
                rank_groups=t,
                factors=factors,
                mode=mode,
                local_block_counts=counts,
                local_rank_blocking=rb,
            )
            if best4 is None or res.total_time < best4.total_time:
                best4 = res
                best_label = res.grid_label
        if best4 is None:
            best4 = ours3
            best_label = ours3.grid_label

        points.append(
            ScalingPoint(
                nodes=int(nodes),
                n_ranks=p,
                splatt_time=splatt.total_time,
                grid_3d=ours3.grid_label,
                time_3d=ours3.total_time,
                grid_4d=best_label,
                time_4d=best4.total_time,
            )
        )
    return points
