"""Experiment functions regenerating every table and figure of the paper.

The per-experiment index lives in DESIGN.md §4; EXPERIMENTS.md records the
paper-vs-measured comparison produced by these functions.  All experiments
are deterministic (fixed dataset seeds) and run on the scaled machine
models matched to each dataset stand-in (``power8_socket().scaled(...)``).
"""

from __future__ import annotations

from typing import Sequence

from repro.blocking.heuristic import select_blocking
from repro.blocking.rank import RankBlocking
from repro.dist.driver import network_for_dataset, strong_scaling
from repro.kernels.base import get_kernel
from repro.machine.spec import MachineSpec, power8, power8_socket
from repro.perf.model import ConfigPlanner, predict_time
from repro.perf.ppa import run_ppa
from repro.perf.roofline import FIG2_ALPHAS, FIG2_RANKS, arithmetic_intensity
from repro.tensor.datasets import DATASETS, load_dataset
from repro.tensor.stats import splatt_footprint

#: The rank axis of Figure 6 (the paper sweeps 16..1024).
FIG6_RANKS: tuple[int, ...] = (16, 32, 64, 128, 256, 512, 1024)

#: The node axis of Table III.
TABLE3_NODES: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64)


def _dataset_machine(name: str, cores: int = 10) -> MachineSpec:
    base = power8_socket() if cores == 10 else power8(cores)
    return base.scaled(DATASETS[name].machine_scale)


# ----------------------------------------------------------------------
# Figure 2 — arithmetic intensity vs rank for a grid of cache hit rates
# ----------------------------------------------------------------------
def experiment_fig2(
    ranks: Sequence[int] = FIG2_RANKS,
    alphas: Sequence[float] = FIG2_ALPHAS,
) -> dict:
    """Figure 2: the Equation 3 intensity grid."""
    series = {
        f"alpha={a:g}": [round(arithmetic_intensity(r, a), 3) for r in ranks]
        for a in alphas
    }
    return {"x_label": "rank", "x_values": list(ranks), "series": series}


# ----------------------------------------------------------------------
# Table I — pressure points on Poisson3, rank 128, one core
# ----------------------------------------------------------------------
def experiment_table1(
    rank: int = 128, seed: int = 0, nnz: "int | None" = None
) -> list[dict]:
    """Table I: the six pressure-point rows (modeled exec time + saving)."""
    tensor = load_dataset("poisson3", seed=seed, nnz=nnz)
    machine = _dataset_machine("poisson3", cores=1)
    plan = get_kernel("splatt").prepare(tensor, 0)
    rows = []
    for res in run_ppa(plan, rank, machine):
        rows.append(
            {
                "type": res.type_id,
                "exec_time_ms": round(res.time * 1e3, 3),
                "saving_%": round(res.saving * 100, 2),
                "description": res.description,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table II — dataset inventory (paper stats + stand-in stats + memory)
# ----------------------------------------------------------------------
def experiment_table2(seed: int = 0) -> list[dict]:
    """Table II plus the Section III-C memory-footprint comparison."""
    rows = []
    for name, info in DATASETS.items():
        tensor = info.build(seed=seed)
        n_fibers, splatt_bytes = splatt_footprint(tensor)
        dims = "x".join(str(d) for d in info.paper_dims)
        sdims = "x".join(str(d) for d in info.standin_dims)
        rows.append(
            {
                "name": name,
                "paper_dims": dims,
                "paper_nnz": info.paper_nnz,
                "paper_sparsity": f"{info.paper_sparsity:.1e}",
                "standin_dims": sdims,
                "standin_nnz": tensor.nnz,
                "standin_sparsity": f"{tensor.density:.1e}",
                "coo_MiB": round(tensor.memory_bytes() / 2**20, 2),
                "splatt_MiB": round(splatt_bytes / 2**20, 2),
                "fibers_per_nnz": round(n_fibers / max(tensor.nnz, 1), 3),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 4 — performance vs number of rank blocks (Poisson2 / Poisson3)
# ----------------------------------------------------------------------
def experiment_fig4(
    datasets: Sequence[str] = ("poisson2", "poisson3"),
    rank: int = 512,
    block_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
    seed: int = 0,
    nnz: "int | None" = None,
) -> dict:
    """Figure 4: relative performance (baseline = 1.0) per RankB count.

    Larger block size = fewer blocks, as in the paper's x-axis.
    """
    x = [f"n={n} (bs={max(1, rank // n)})" for n in block_counts]
    series: dict[str, list[float]] = {}
    for name in datasets:
        tensor = load_dataset(name, seed=seed, nnz=nnz)
        machine = _dataset_machine(name)
        planner = ConfigPlanner(tensor, 0)
        base = predict_time(planner.plan_for(None, None), rank, machine).total
        perf = []
        for n in block_counts:
            plan = planner.plan_for(None, RankBlocking(n_blocks=n))
            t = predict_time(plan, rank, machine).total
            perf.append(round(base / t, 3))
        series[name] = perf
    return {"x_label": "rank_blocks", "x_values": x, "series": series}


# ----------------------------------------------------------------------
# Figure 5 — performance vs MB grid (Poisson2 / Poisson3)
# ----------------------------------------------------------------------
FIG5_GRIDS = {
    "poisson2": [
        (1, 2, 1),
        (1, 4, 1),
        (1, 8, 1),
        (1, 16, 1),
        (1, 32, 1),
        (2, 4, 1),
        (1, 4, 2),
        (8, 1, 1),
        (1, 1, 8),
        (16, 16, 16),
        (32, 1, 32),
    ],
    "poisson3": [
        (1, 2, 1),
        (1, 5, 1),
        (1, 10, 1),
        (1, 10, 5),
        (2, 10, 5),
        (5, 5, 5),
        (1, 1, 10),
        (10, 1, 1),
        (10, 10, 10),
    ],
}


def experiment_fig5(
    dataset: str,
    rank: int = 512,
    grids: "Sequence[tuple[int, int, int]] | None" = None,
    seed: int = 0,
    nnz: "int | None" = None,
) -> list[dict]:
    """Figure 5: relative performance (baseline = 1.0) per MB grid."""
    grids = grids if grids is not None else FIG5_GRIDS[dataset]
    tensor = load_dataset(dataset, seed=seed, nnz=nnz)
    machine = _dataset_machine(dataset)
    planner = ConfigPlanner(tensor, 0)
    base = predict_time(planner.plan_for(None, None), rank, machine).total
    rows = []
    for grid in grids:
        t = predict_time(planner.plan_for(tuple(grid), None), rank, machine).total
        rows.append(
            {
                "grid": "x".join(str(g) for g in grid),
                "relative_perf": round(base / t, 3),
            }
        )
    return rows


# ----------------------------------------------------------------------
# Figure 6 — speedup of MB / RankB / MB+RankB over SPLATT vs rank
# ----------------------------------------------------------------------
def experiment_fig6(
    dataset: str,
    ranks: Sequence[int] = FIG6_RANKS,
    seed: int = 0,
    nnz: "int | None" = None,
) -> dict:
    """Figure 6 (one subplot): heuristic-tuned speedups per technique."""
    tensor = load_dataset(dataset, seed=seed, nnz=nnz)
    machine = _dataset_machine(dataset)
    planner = ConfigPlanner(tensor, 0)
    series = {"MB": [], "RankB": [], "MB+RankB": []}
    for rank in ranks:
        evaluate = planner.evaluator(rank, machine)
        base = evaluate(None, None)
        for label, use_mb, use_rankb in (
            ("MB", True, False),
            ("RankB", False, True),
            ("MB+RankB", True, True),
        ):
            choice = select_blocking(
                tensor, 0, rank, evaluate, use_mb=use_mb, use_rankb=use_rankb
            )
            series[label].append(round(base / choice.cost, 3))
    return {"x_label": "rank", "x_values": list(ranks), "series": series}


# ----------------------------------------------------------------------
# Table III — distributed strong scaling (NELL2 / Netflix)
# ----------------------------------------------------------------------
def experiment_table3(
    dataset: str,
    rank: int = 128,
    node_counts: Sequence[int] = TABLE3_NODES,
    seed: int = 0,
    nnz: "int | None" = None,
) -> list[dict]:
    """Table III: SPLATT vs ours-3D vs ours-4D times per node count."""
    info = DATASETS[dataset]
    tensor = load_dataset(dataset, seed=seed, nnz=nnz)
    machine = _dataset_machine(dataset)
    network = network_for_dataset(info)
    points = strong_scaling(
        tensor, rank, node_counts, machine, network=network, seed=seed
    )
    rows = []
    for p in points:
        rows.append(
            {
                "nodes": p.nodes,
                "splatt_ms": round(p.splatt_time * 1e3, 4),
                "3d_grid": p.grid_3d,
                "3d_ms": round(p.time_3d * 1e3, 4),
                "4d_grid": p.grid_4d,
                "4d_ms": round(p.time_4d * 1e3, 4),
                "speedup": f"{p.speedup:.2f}x",
            }
        )
    return rows
