"""Process-backend distributed MTTKRP: the SPMD program each rank runs.

Where :mod:`repro.dist.mttkrp` *simulates* all ranks in one loop,
this module dispatches one task per rank onto pinned
:class:`~repro.exec.pool.WorkerPool` processes; the ranks move factor
rows and partial outputs through :class:`~repro.dist.shmcomm.ShmComm`
collectives and write their owned share of the result into a shared
output segment.  Every rank executes the same phase sequence the
simulation models — gather (inner then fiber mode), local kernel, fold,
and for 4D grids the final rank-dimension allgather — with group-order
summation, so the assembled output is **bitwise identical** to the sim
backend's, while communication time and bytes are measured rather than
modeled.

Workers are pinned: worker ``r`` is rank ``r`` for the cluster's
lifetime, so its attached segments (:data:`shmcomm._COMM_CACHE`) and
its rebased tensor block (:data:`_BLOCK_CACHE`) persist across the
``3 x n_iters`` MTTKRPs of an ALS run and the block crosses the queue
exactly once.
"""

from __future__ import annotations

import itertools
import time
from typing import Any, Sequence

import numpy as np

from repro.blocking.rank import RankBlocking
from repro.dist.comm import CommLedger
from repro.dist.grid import ProcessGrid
from repro.dist.shmcomm import ShmCluster
from repro.kernels.base import factor_dtype, get_kernel
from repro.obs import current_tracer
from repro.perf.model import prepare_plan
from repro.tensor.coo import COOTensor
from repro.util.errors import DistributionError

__all__ = ["run_process_mttkrp", "required_capacity", "gram_allreduce"]

#: Worker-side cache of rebased local tensor blocks, keyed by
#: (cluster base, decomposition token, block coords).
_BLOCK_CACHE: "dict[tuple, COOTensor]" = {}

_decomp_tokens = itertools.count()


def drop_block_cache(base: str) -> None:
    """Forget a closed cluster's cached blocks (worker side)."""
    for key in [k for k in _BLOCK_CACHE if k[0] == base]:
        del _BLOCK_CACHE[key]


def _decomp_token(decomp: Any) -> int:
    """A stable id for one decomposition, minted on first use (block
    payloads are cached under it in the workers)."""
    token = getattr(decomp, "_shm_token", None)
    if token is None:
        token = next(_decomp_tokens)
        decomp._shm_token = token
    return token


def _owned_ranges(lo: int, hi: int, n_owners: int) -> "list[tuple[int, int]]":
    """Equal split of a row range among slab members (ownership order) —
    must match :func:`repro.dist.mttkrp._owned_ranges` exactly."""
    bounds = lo + ((hi - lo) * np.arange(n_owners + 1)) // n_owners
    return [(int(bounds[g]), int(bounds[g + 1])) for g in range(n_owners)]


def _clamped_counts(
    counts: "Sequence[int] | None", shape: Sequence[int]
) -> "tuple[int, ...] | None":
    if counts is None:
        return None
    return tuple(max(1, min(int(c), int(s))) for c, s in zip(counts, shape))


# ---------------------------------------------------------------------
# the SPMD rank program (runs inside pool workers)
# ---------------------------------------------------------------------
def _local_block(base: str, payload: "dict[str, Any]") -> COOTensor:
    key = (base, payload["token"], payload["coords"][:3])
    cached = _BLOCK_CACHE.get(key)
    if cached is not None:
        return cached
    data = payload.get("block")
    if data is None:
        raise DistributionError(
            "block payload missing and not cached — parent/worker "
            "cache tracking diverged"
        )
    indices, values, bounds = data
    local_shape = tuple(hi - lo for lo, hi in bounds)
    offsets = np.array([lo for lo, _ in bounds], dtype=np.int64)
    local = COOTensor(
        local_shape,
        indices - offsets if len(indices) else indices,
        values,
        validate=False,
    )
    _BLOCK_CACHE[key] = local
    return local


def _rank_mttkrp(
    comm: Any, payload: "dict[str, Any]", out_name: "str | None"
) -> "dict[str, Any]":
    """One rank's medium-grained MTTKRP: the same four phases the
    simulation executes, against real collectives."""
    from repro.dist.shmcomm import _attach

    grid = ProcessGrid(payload["dims"], payload["rank_groups"])
    a, b, c, layer = grid.coords(comm.rank)
    mode = payload["mode"]
    rank = payload["rank_cols"]
    slo, shi = payload["strip"]
    axis_of = payload["axis_of"]
    inner_mode = (mode + 1) % 3
    fiber_mode = (mode + 2) % 3

    # ---- 1. gather factor rows within my slabs (B then C) -------------
    assembled: "dict[int, np.ndarray]" = {}
    for m in (inner_mode, fiber_mode):
        axis = axis_of[m]
        chunk = (a, b, c)[axis]
        ranks = grid.slab_ranks(axis, chunk, layer)
        bufs = comm.allgather(ranks, payload["owned"][m])
        assembled[m] = np.concatenate(bufs, axis=0)

    # ---- 2. local kernel on my block -----------------------------------
    t0 = time.perf_counter()
    local = _local_block(comm.layout.base, payload)
    counts = _clamped_counts(payload["block_counts"], local.shape)
    plan = prepare_plan(local, mode, counts, payload["rank_blocking"])
    local_factors: "list[np.ndarray | None]" = [None, None, None]
    for m in (inner_mode, fiber_mode):
        # Block bounds along m span the whole chunk, which is exactly the
        # row range the gather assembled.
        local_factors[m] = assembled[m]
    kernel = get_kernel(plan.kernel_name)
    partial = kernel.execute(plan, local_factors)
    compute_s = time.perf_counter() - t0

    # ---- 3. fold partial outputs within the output slab ----------------
    axis = axis_of[mode]
    chunk = (a, b, c)[axis]
    ranks = grid.slab_ranks(axis, chunk, layer)
    piece = comm.reduce_scatter(ranks, partial)
    pos = ranks.index(comm.rank)
    lo, hi = payload["out_chunk"]
    plo, phi = _owned_ranges(lo, hi, len(ranks))[pos]

    # ---- 4. rank-dimension allgather (4D only) --------------------------
    if payload["rank_groups"] > 1:
        peers = grid.layer_peers(a, b, c)
        gathered = comm.allgather(peers, np.ascontiguousarray(piece))
        full_rows = np.concatenate(gathered, axis=1)
        if full_rows.shape != (phi - plo, rank):
            comm.abort()
            raise DistributionError(
                f"rank {comm.rank}: rank-allgather assembled "
                f"{full_rows.shape}, expected {(phi - plo, rank)}"
            )

    # ---- write my owned (rows x strip) tile of the output ---------------
    if out_name is not None and phi > plo:
        out_shape = payload["out_shape"]
        dtype = np.dtype(payload["out_dtype"])
        shm = _attach(out_name)
        try:
            view = np.frombuffer(
                shm.buf, dtype=dtype, count=out_shape[0] * out_shape[1]
            ).reshape(out_shape)
            view[plo:phi, slo:shi] = piece
            del view
        finally:
            shm.close()
    return {"compute_s": compute_s}


def _rank_allreduce(
    comm: Any, payload: "dict[str, Any]", out_name: "str | None"
) -> "dict[str, Any]":
    """The ALS Gram allreduce: real data movement whose result the
    caller discards, exactly as the simulation charges it."""
    comm.allreduce(payload["group"], payload["array"])
    return {"compute_s": 0.0}


# ---------------------------------------------------------------------
# parent-side drivers
# ---------------------------------------------------------------------
def required_capacity(
    decomp: Any, rank: int, rank_groups: int, itemsize: int
) -> int:
    """Ring capacity covering the largest single collective payload of a
    whole run over this decomposition: a full partial-output buffer
    (largest chunk extent x widest strip), with the ``R x R`` Gram
    allreduce as the floor."""
    max_extent = max(
        int(np.diff(decomp.boundaries[m]).max()) for m in range(3)
    )
    strips = RankBlocking(n_blocks=rank_groups).strips(rank)
    max_strip = max(hi - lo for lo, hi in strips)
    return itemsize * max(max_extent * max_strip, rank * rank)


def _mttkrp_payloads(
    decomp: Any,
    factors: Sequence[np.ndarray],
    mode: int,
    grid: ProcessGrid,
    rank_groups: int,
    strips: "list[tuple[int, int]]",
    cluster: ShmCluster,
    local_block_counts: "Sequence[int] | None",
    local_rank_blocking: "RankBlocking | None",
    out_dtype: np.dtype,
) -> "list[dict[str, Any]]":
    rank = factors[0].shape[1]
    shape = decomp.tensor_shape
    axis_of = [decomp.axis_of_mode(m) for m in range(3)]
    inner_mode = (mode + 1) % 3
    fiber_mode = (mode + 2) % 3
    token = _decomp_token(decomp)
    payloads = []
    for g_rank in range(grid.n_ranks):
        a, b, c, layer = grid.coords(g_rank)
        slo, shi = strips[layer]
        owned: "dict[int, np.ndarray]" = {}
        for m in (inner_mode, fiber_mode):
            axis = axis_of[m]
            chunk = (a, b, c)[axis]
            ranks = grid.slab_ranks(axis, chunk, layer)
            lo, hi = decomp.mode_chunk(m, chunk)
            plo, phi = _owned_ranges(lo, hi, len(ranks))[ranks.index(g_rank)]
            owned[m] = np.ascontiguousarray(factors[m][plo:phi, slo:shi])
        block = decomp.blocks[(a, b, c)]
        key = (cluster.layout.base, token, (a, b, c))
        block_data = None
        if (g_rank, key) not in cluster.sent_blocks:
            block_data = (block.tensor.indices, block.tensor.values, block.bounds)
            cluster.sent_blocks.add((g_rank, key))
        payloads.append(
            {
                "dims": grid.dims,
                "rank_groups": rank_groups,
                "mode": mode,
                "rank_cols": rank,
                "strip": (slo, shi),
                "axis_of": axis_of,
                "owned": owned,
                "out_chunk": decomp.mode_chunk(mode, (a, b, c)[axis_of[mode]]),
                "out_shape": (shape[mode], rank),
                "out_dtype": out_dtype.str,
                "token": token,
                "coords": (a, b, c, layer),
                "block": block_data,
                "block_counts": (
                    tuple(local_block_counts) if local_block_counts else None
                ),
                "rank_blocking": local_rank_blocking,
            }
        )
    return payloads


def _charge_ledger(
    ledger: CommLedger, results: "list[dict[str, Any]]"
) -> tuple[float, float]:
    """Charge every leader-observed collective; returns (ledger bytes,
    measured bytes) for the equality check."""
    measured = 0.0
    for res in sorted(results, key=lambda r: r["rank"]):
        measured += res["bytes_moved"]
        for rec in res["records"]:
            ledger.charge(rec.op, rec.ranks, rec.ledger_bytes(), rec.seconds)
    return ledger.total_bytes, measured


def _emit_observability(
    results: "list[dict[str, Any]]", mode: int, grid_label: str
) -> None:
    tracer = current_tracer()
    if not tracer.enabled:
        return
    now = time.monotonic_ns()
    total_bytes = 0.0
    n_collectives = 0
    for res in results:
        rank = res["rank"]
        comm_ns = int(res["comm_seconds"] * 1e9)
        compute_ns = int(res["compute_s"] * 1e9)
        tracer.add_span(
            "dist.compute",
            now - comm_ns - compute_ns,
            compute_ns,
            thread_id=2_000_000 + rank,
            thread_name=f"dist-rank-{rank}",
            mode=mode,
            grid=grid_label,
            synthesized=True,
        )
        tracer.add_span(
            "dist.comm",
            now - comm_ns,
            comm_ns,
            thread_id=2_000_000 + rank,
            thread_name=f"dist-rank-{rank}",
            mode=mode,
            grid=grid_label,
            bytes=res["bytes_moved"],
            synthesized=True,
        )
        total_bytes += res["bytes_moved"]
        n_collectives += len(res["records"])
    tracer.count("dist.comm_bytes", total_bytes)
    tracer.count("dist.collectives", n_collectives)
    tracer.count("dist.ranks", len(results))


def run_process_mttkrp(
    decomp: Any,
    factors: Sequence[np.ndarray],
    mode: int,
    grid: ProcessGrid,
    *,
    rank_groups: int = 1,
    local_block_counts: "Sequence[int] | None" = None,
    local_rank_blocking: "RankBlocking | None" = None,
    shm: "ShmCluster | None" = None,
    timeout_s: "float | None" = None,
):
    """Execute one distributed MTTKRP on real processes; returns the
    fields :func:`repro.dist.mttkrp.distributed_mttkrp` assembles into a
    :class:`DistMTTKRPResult` (callers go through that front door)."""
    rank = factors[0].shape[1]
    out_dtype = factor_dtype(list(factors))
    strips = RankBlocking(n_blocks=rank_groups).strips(rank)
    cluster = shm
    own_cluster = cluster is None
    if own_cluster:
        cluster = ShmCluster(
            grid.n_ranks,
            required_capacity(decomp, rank, rank_groups, out_dtype.itemsize),
            **({"timeout_s": timeout_s} if timeout_s else {}),
        )
    elif cluster.n_ranks < grid.n_ranks:
        raise DistributionError(
            f"cluster has {cluster.n_ranks} ranks, grid needs {grid.n_ranks}"
        )
    try:
        payloads = _mttkrp_payloads(
            decomp,
            factors,
            mode,
            grid,
            rank_groups,
            strips,
            cluster,
            local_block_counts,
            local_rank_blocking,
            out_dtype,
        )
        shape = decomp.tensor_shape
        results, out = cluster.run_spmd(
            _rank_mttkrp,
            payloads,
            out_shape=(shape[mode], rank),
            out_dtype=out_dtype,
        )
    finally:
        if own_cluster:
            cluster.close()

    ledger = CommLedger(grid.n_ranks)
    ledger_bytes, measured_bytes = _charge_ledger(ledger, results)
    compute_times = np.zeros(grid.n_ranks)
    comm_seconds = np.zeros(grid.n_ranks)
    for res in results:
        compute_times[res["rank"]] = res["compute_s"]
        comm_seconds[res["rank"]] = res["comm_seconds"]
    # Measured makespan: the slowest rank's wall time inside the SPMD
    # program (the ledger's synchronized-replay rank_time is the modeled
    # view; the process backend reports reality).
    ledger.rank_time[:] = compute_times + comm_seconds
    q, r, s = grid.dims
    grid_label = (
        f"{q}x{r}x{s}x{rank_groups}" if rank_groups > 1 else f"{q}x{r}x{s}"
    )
    _emit_observability(results, mode, grid_label)
    assert out is not None
    return {
        "output": out,
        "total_time": ledger.makespan,
        "comm_time": ledger.comm_time,
        "compute_times": compute_times,
        "comm_bytes": ledger_bytes,
        "measured_comm_bytes": measured_bytes,
        "comm_seconds": comm_seconds,
        "grid_label": grid_label,
        "records": ledger.records,
    }


def gram_allreduce(
    cluster: ShmCluster, grid: ProcessGrid, gram_share: np.ndarray
) -> "tuple[float, float, float]":
    """The ALS Gram-matrix allreduce over every rank (result discarded,
    as in the simulation); returns (ledger bytes, measured bytes, max
    rank seconds)."""
    group = list(range(grid.n_ranks))
    payloads = [
        {"group": group, "array": gram_share} for _ in range(grid.n_ranks)
    ]
    results, _ = cluster.run_spmd(_rank_allreduce, payloads)
    ledger = CommLedger(grid.n_ranks)
    ledger_bytes, measured = _charge_ledger(ledger, results)
    max_s = max(res["comm_seconds"] for res in results)
    return ledger_bytes, measured, max_s
