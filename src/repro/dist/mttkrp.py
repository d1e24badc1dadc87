"""Distributed MTTKRP over the simulated cluster.

The algorithm is the medium-grained MTTKRP of distributed SPLATT, with the
paper's optional rank-extension (Section V-B):

1. **Gather** — every process obtains the rows of ``B`` and ``C`` its
   tensor block touches, via an allgather within the slab of processes
   sharing that chunk (rows are co-owned by the slab).
2. **Local kernel** — each process runs a shared-memory MTTKRP (baseline
   SPLATT or any of the blocked variants) on its block against the
   gathered factor chunks; its modeled time comes from
   :func:`repro.perf.model.predict_time`.
3. **Fold** — partial output rows are reduce-scattered within the slab
   sharing the output chunk, leaving each process owning its share of the
   updated factor.
4. **Rank allgather (4D only)** — each of the ``t`` rank groups computed
   an independent ``R/t``-column strip; one allgather among layer peers
   assembles full rows.  "The overhead is negligible (and included in our
   execution time)."

Numerics are exact — the collectives move real NumPy buffers, and the
assembled output is bit-identical to the kernels' shared-memory result —
while the :class:`~repro.dist.comm.CommLedger` plus per-rank compute
charges produce the modeled makespan Table III reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.diagnostics import Severity
from repro.analysis.plans import verify_decomposition, verify_rank_extension
from repro.analysis.races import verify_fold_covers_conflicts
from repro.blocking.rank import RankBlocking
from repro.dist.comm import SimCluster
from repro.dist.mediumgrain import MediumGrainDecomposition
from repro.kernels.base import factor_dtype, get_kernel
from repro.machine.spec import MachineSpec
from repro.perf.model import predict_time, prepare_plan
from repro.tensor.coo import COOTensor
from repro.util.errors import DistributionError
from repro.util.validation import check_mode, check_rank


@dataclass
class DistMTTKRPResult:
    """Outcome of one distributed MTTKRP (simulated or real).

    With ``backend="sim"`` the times are modeled (machine model +
    alpha-beta network) and ``measured_comm_bytes`` is ``None``; with
    ``backend="process"`` every time is a wall-clock measurement and the
    measured byte count must equal ``comm_bytes`` (the ledger's formula
    accounting) — the invariant the test suite gates.
    """

    #: Assembled (I_mode, R) output — exact, for verification.
    output: np.ndarray
    #: Completion time of the slowest rank (compute + comm).
    total_time: float
    #: Sum of all collective costs.
    comm_time: float
    #: Per-rank local-kernel time (modeled for sim, measured for process).
    compute_times: np.ndarray
    #: Bytes moved by all collectives per the ledger's formulas.
    comm_bytes: float
    #: The grid notation used (Table III's "3D grid" / "4D grid" columns).
    grid_label: str
    #: Which substrate executed the run.
    backend: str = "sim"
    #: Bytes actually copied out of peer segments (process backend only).
    measured_comm_bytes: "float | None" = None
    #: Per-rank measured seconds inside collectives (process backend only).
    comm_seconds: "np.ndarray | None" = None

    @property
    def max_compute_time(self) -> float:
        """Slowest rank's local-kernel time."""
        return float(self.compute_times.max()) if self.compute_times.size else 0.0


def _owned_ranges(lo: int, hi: int, n_owners: int) -> list[tuple[int, int]]:
    """Equal split of a row range among slab members (ownership order)."""
    bounds = lo + ((hi - lo) * np.arange(n_owners + 1)) // n_owners
    return [(int(bounds[g]), int(bounds[g + 1])) for g in range(n_owners)]


def _clamped_counts(
    counts: "Sequence[int] | None", shape: Sequence[int]
) -> "tuple[int, ...] | None":
    """Clamp a global MB grid to a (possibly smaller) local block shape."""
    if counts is None:
        return None
    return tuple(max(1, min(int(c), int(s))) for c, s in zip(counts, shape))


def distributed_mttkrp(
    decomp: MediumGrainDecomposition,
    factors: Sequence[np.ndarray],
    mode: int,
    machine: MachineSpec,
    cluster: "SimCluster | None" = None,
    *,
    rank_groups: int = 1,
    local_block_counts: "Sequence[int] | None" = None,
    local_rank_blocking: "RankBlocking | None" = None,
    backend: str = "sim",
    shm: "object | None" = None,
) -> DistMTTKRPResult:
    """Run one distributed mode-``mode`` MTTKRP.

    ``decomp`` describes one rank group's 3D decomposition; with
    ``rank_groups = t > 1`` the same decomposition is replicated across
    ``t`` layers, each computing an ``R/t``-column strip (the 4D scheme).
    ``machine`` is the per-process machine model (one socket in the
    paper's setup).

    ``backend="sim"`` (default) simulates the ranks in-process with
    modeled times; ``backend="process"`` shards the decomposition across
    real pinned worker processes exchanging data through shared-memory
    collectives (pass an open :class:`~repro.dist.shmcomm.ShmCluster` as
    ``shm`` to reuse segments and workers across calls).  Both backends
    produce bitwise-identical outputs.
    """
    if backend not in ("sim", "process"):
        raise DistributionError(
            f"backend must be 'sim' or 'process', got {backend!r}"
        )
    grid = decomp.grid
    if grid.rank_groups != rank_groups:
        grid = type(grid)(grid.dims, rank_groups)
    mode = check_mode(mode, 3)
    shape = decomp.tensor_shape
    rank = check_rank(factors[(mode + 1) % 3].shape[1])
    inner_mode = (mode + 1) % 3
    fiber_mode = (mode + 2) % 3
    if backend == "sim":
        cluster = cluster or SimCluster(grid.n_ranks)
        if cluster.n_ranks < grid.n_ranks:
            raise DistributionError(
                f"cluster has {cluster.n_ranks} ranks, grid needs {grid.n_ranks}"
            )

    # Race check before any compute is modeled: processes sharing an
    # output chunk conflict by design (the fold reduce-scatters their
    # privatized partials), but a conflict *across* slabs would be folded
    # nowhere — reject the schedule outright (ScheduleError).
    verify_fold_covers_conflicts(decomp, mode)

    # Soundness proof before any compute: the decomposition must tile the
    # index space with every nonzero in exactly one block (PL405/PL406)
    # and the t-way rank extension must tile [0, R) (PL408).
    plan_errors = [
        d
        for d in verify_decomposition(decomp)
        + verify_rank_extension(rank_groups, rank)
        if d.severity is Severity.ERROR
    ]
    if plan_errors:
        raise DistributionError(
            "unsound decomposition: "
            + "; ".join(d.message for d in plan_errors[:3])
        )

    if backend == "process":
        from repro.dist.procbackend import run_process_mttkrp

        fields = run_process_mttkrp(
            decomp,
            factors,
            mode,
            grid,
            rank_groups=rank_groups,
            local_block_counts=local_block_counts,
            local_rank_blocking=local_rank_blocking,
            shm=shm,
        )
        fields.pop("records", None)
        return DistMTTKRPResult(backend="process", **fields)

    strips = RankBlocking(n_blocks=rank_groups).strips(rank)
    # Output follows the factor dtype end-to-end: a float32 decomposition
    # folds and assembles float32 rows (the PR-4/5 precision contract).
    out = np.zeros((shape[mode], rank), dtype=factor_dtype(list(factors)))
    compute_times = np.zeros(grid.n_ranks)

    q, r, s = grid.dims
    axis_of = [decomp.axis_of_mode(m) for m in range(3)]

    for layer, (slo, shi) in enumerate(strips):
        strip_cols = shi - slo

        # ---- 1. gather factor rows within slabs (B then C) -------------
        for m in (inner_mode, fiber_mode):
            axis = axis_of[m]
            for chunk in range(grid.dims[axis]):
                ranks = grid.slab_ranks(axis, chunk, layer)
                lo, hi = decomp.mode_chunk(m, chunk)
                pieces = _owned_ranges(lo, hi, len(ranks))
                buffers = [
                    np.ascontiguousarray(factors[m][plo:phi, slo:shi])
                    for plo, phi in pieces
                ]
                gathered = cluster.allgather(ranks, buffers)
                # Reconstruct the chunk each member now holds and verify
                # the exchange delivered exactly the owned pieces.
                chunk_rows = np.concatenate(gathered[0], axis=0)
                assert chunk_rows.shape == (hi - lo, strip_cols)

        # ---- 2. local kernels ------------------------------------------
        partials: dict[tuple[int, int, int], np.ndarray] = {}
        for (a, b, c), block in decomp.blocks.items():
            g_rank = grid.rank_of(a, b, c, layer)
            bounds = block.bounds
            local_shape = tuple(hi - lo for lo, hi in bounds)
            offsets = np.array([lo for lo, _ in bounds], dtype=np.int64)
            local = COOTensor(
                local_shape,
                block.tensor.indices - offsets,
                block.tensor.values,
                validate=False,
            )
            counts = _clamped_counts(local_block_counts, local_shape)
            plan = prepare_plan(local, mode, counts, local_rank_blocking)
            local_factors: list[np.ndarray] = [None, None, None]
            for m in (inner_mode, fiber_mode):
                lo, hi = bounds[m]
                local_factors[m] = np.ascontiguousarray(
                    factors[m][lo:hi, slo:shi]
                )
            kernel = get_kernel(plan.kernel_name)
            partial = kernel.execute(plan, local_factors)
            partials[(a, b, c)] = partial
            t_local = predict_time(plan, strip_cols, machine).total
            compute_times[g_rank] = t_local
            cluster.ledger.advance(g_rank, t_local)

        # ---- 3. fold partial outputs within the output slab -------------
        axis = axis_of[mode]
        for chunk in range(grid.dims[axis]):
            ranks = grid.slab_ranks(axis, chunk, layer)
            lo, hi = decomp.mode_chunk(mode, chunk)
            members = [
                coords
                for coords in decomp.blocks
                if coords[axis] == chunk
            ]
            members.sort()
            buffers = [partials[coords] for coords in members]
            scattered = cluster.reduce_scatter(ranks, buffers)
            owned = _owned_ranges(lo, hi, len(ranks))
            for (plo, phi), piece in zip(owned, scattered):
                out[plo:phi, slo:shi] = piece

    # ---- 4. rank-dimension allgather (4D only) ---------------------------
    if rank_groups > 1:
        # One allgather per grid position: layer ell contributes its owned
        # rows' strip-ell columns, and every layer peer ends with full-R
        # rows — "an extra AllGather ... the overhead is negligible (and
        # included in our execution time)".
        axis = axis_of[mode]
        for a in range(q):
            for b in range(r):
                for c in range(s):
                    peers = grid.layer_peers(a, b, c)
                    chunk = (a, b, c)[axis]
                    lo, hi = decomp.mode_chunk(mode, chunk)
                    slab = grid.slab_ranks(axis, chunk, 0)
                    pos = slab.index(grid.rank_of(a, b, c, 0))
                    plo, phi = _owned_ranges(lo, hi, len(slab))[pos]
                    buffers = [
                        np.ascontiguousarray(out[plo:phi, s0:s1])
                        for s0, s1 in strips
                    ]
                    gathered = cluster.allgather(peers, buffers)
                    assembled = np.concatenate(gathered[0], axis=1)
                    assert assembled.shape == (phi - plo, rank)

    ledger = cluster.ledger
    return DistMTTKRPResult(
        output=out,
        total_time=ledger.makespan,
        comm_time=ledger.comm_time,
        compute_times=compute_times,
        comm_bytes=ledger.total_bytes,
        grid_label=(
            f"{q}x{r}x{s}x{rank_groups}" if rank_groups > 1 else f"{q}x{r}x{s}"
        ),
    )
