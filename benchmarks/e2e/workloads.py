"""The decomposition workloads (``als-f64``, ``als-f32-t2``, ``dist-p2``)
and the layer probes every workload shares.

A workload child process gets ready (imports, tensor build, one warm-up
call), then either times whole decomposition calls for the run window,
``args.seconds`` (the timed run) or replays the same sequence of public layer calls with
spans around each one (the traced run).  Only the public layer functions
of ``repro`` are called: ``cp_als``, ``Kernel.prepare``/``execute``,
``ParallelExecutor``, ``KruskalTensor.fit``, ``init_factors``,
``distributed_cp_als``/``distributed_mttkrp``/``ShmCluster``, and the
machine model.  The ALS update step of the replay is benchmark-side
NumPy, written to perform the same arithmetic as ``cp_als``.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from statistics import median
from types import SimpleNamespace

import numpy as np

from spans import SpanRecorder

#: Threads in every exec-layer probe (the host has 2 cores).
N_THREADS = 2

#: Relative fit agreement required between the program and the
#: benchmark's own references, per working dtype.
FIT_TOL = {np.dtype(np.float64): 1e-8, np.dtype(np.float32): 1e-3}


@dataclass(frozen=True)
class DecompSpec:
    """One decomposition workload's fixed parameters."""

    rank: int
    n_iters: int
    kernel: str = "splatt"
    #: ``Kernel.prepare`` parameters, as sorted items.
    params: tuple = ()
    n_threads: int = 1


_MB_RANKB = (("block_counts", (4, 2, 1)), ("n_rank_blocks", 2))

SPECS = {
    ("als-f64", "full"): DecompSpec(rank=32, n_iters=10),
    ("als-f64", "smoke"): DecompSpec(rank=8, n_iters=3),
    ("als-f32-t2", "full"): DecompSpec(64, 4, "mb+rankb", _MB_RANKB, 2),
    ("als-f32-t2", "smoke"): DecompSpec(16, 2, "mb+rankb", _MB_RANKB, 2),
    ("dist-p2", "full"): DecompSpec(rank=32, n_iters=8),
    ("dist-p2", "smoke"): DecompSpec(rank=8, n_iters=2),
}

#: Probe repetitions per plan (median taken), by scale.
PROBE_REPS = {"full": 3, "smoke": 1}

#: Nonzeros kept of the poisson2 stand-in (``als-f64``, ``dist-p2``).
POISSON2_NNZ = 120_000


# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# inputs and setup
def import_repro() -> SimpleNamespace:
    """Every public layer function the benchmark calls."""
    from repro.cpd import KruskalTensor, cp_als, init_factors
    from repro.dist import (
        ProcessGrid,
        ShmCluster,
        distributed_cp_als,
        distributed_mttkrp,
        medium_grain_decompose,
    )
    from repro.dist.procbackend import gram_allreduce, required_capacity
    from repro.exec import ParallelExecutor
    from repro.kernels import get_kernel
    from repro.machine import estimate_traffic, power8_socket
    from repro.perf.model import mttkrp_flops, predict_time
    from repro.tensor import (
        DATASETS,
        COOTensor,
        poisson_tensor,
        power_law_tensor,
        uniform_random_tensor,
    )

    return SimpleNamespace(**locals())


def build_tensor(R, workload: str, seed: int, scale: str):
    if workload == "als-f32-t2":
        # Netflix-shaped: the 40000 x 64 float32 factor (10 MB) exceeds
        # the 4 MB L2, the regime where MB+RankB blocking matters.
        shape, nnz = ((40000, 8000, 80), 400_000) if scale == "full" else (
            (4000, 800, 80), 20_000)
        t = R.power_law_tensor(shape, nnz, alphas=(1.05, 1.1, 0.5), seed=seed)
        return R.COOTensor(t.shape, t.indices, t.values.astype(np.float32))
    if scale == "smoke":
        return R.poisson_tensor((40, 200, 40), 20_000, gen_rank=8,
                                concentration=0.3, seed=seed)
    # The poisson2 stand-in's nnz ranges 129k-155k over seeds and time to
    # solution follows it; a seeded subset of fixed size takes the input
    # size out of the seed-to-seed spread.
    t = R.DATASETS["poisson2"].build(seed)
    keep = np.sort(np.random.default_rng(seed).choice(
        t.nnz, min(t.nnz, POISSON2_NNZ), replace=False))
    return R.COOTensor(t.shape, t.indices[keep], t.values[keep])


def decompose(R, state, n_iters: "int | None" = None):
    """One whole decomposition call, exactly as a user makes it."""
    spec, n_iters = state.spec, n_iters or state.spec.n_iters
    if state.workload == "dist-p2":
        return R.distributed_cp_als(
            state.tensor, spec.rank, R.ProcessGrid((2, 1, 1)),
            R.power8_socket(), n_iters=n_iters, tol=0.0, backend="process",
            seed=state.seed,
        )
    return R.cp_als(
        state.tensor, spec.rank, n_iters=n_iters, tol=0.0, kernel=spec.kernel,
        kernel_params=dict(spec.params), n_threads=spec.n_threads,
        seed=state.seed,
    )


def setup(args) -> "tuple[SimpleNamespace, SimpleNamespace, dict]":
    """Imports, tensor build and one untimed 1-iteration warm-up call."""
    t0 = time.perf_counter()
    R = import_repro()
    t1 = time.perf_counter()
    tensor = build_tensor(R, args.workload, args.seed, args.scale)
    t2 = time.perf_counter()
    state = SimpleNamespace(
        workload=args.workload, seed=args.seed, scale=args.scale,
        tensor=tensor, spec=SPECS[(args.workload, args.scale)],
    )
    decompose(R, state, n_iters=1)
    t3 = time.perf_counter()
    ready = {
        "setup.import_s": t1 - t0,
        "tensor.build_s": t2 - t1,
        "setup.warmup_s": t3 - t2,
    }
    return R, state, ready


# ----------------------------------------------------------------------
# correctness references
def oracle_fit(tensor, weights, factors) -> float:
    """``1 - ||X - M|| / ||X||`` in float64, independent of
    ``KruskalTensor``: the model norm from Gram matrices, the inner
    product from per-nonzero gathers in chunks."""
    w = np.asarray(weights, dtype=np.float64)
    fs = [np.asarray(f, dtype=np.float64) for f in factors]
    gram = np.ones((w.size, w.size))
    for f in fs:
        gram *= f.T @ f
    vals = tensor.values.astype(np.float64)
    inner = 0.0
    for lo in range(0, tensor.nnz, 1 << 16):
        idx = tensor.indices[lo:lo + (1 << 16)]
        rows = np.ones((idx.shape[0], w.size))
        for m, f in enumerate(fs):
            rows *= f[idx[:, m]]
        inner += float(vals[lo:lo + idx.shape[0]] @ (rows @ w))
    x_sq = float(vals @ vals)
    resid = max(x_sq + float(w @ gram @ w) - 2.0 * inner, 0.0)
    return 1.0 - math.sqrt(resid) / math.sqrt(x_sq)


def fits_agree(a: float, b: float, dtype) -> bool:
    return abs(a - b) <= FIT_TOL[np.dtype(dtype)] * max(1.0, abs(b))


def als_update(m_mat, grams, mode: int, iteration: int, dtype):
    """The ALS mode update in the same arithmetic as ``cp_als``: V is the
    Hadamard product of the other modes' Grams, ``F = M V^+``, then
    max-norm (first iteration) or 2-norm column normalisation."""
    rank = m_mat.shape[1]
    v = np.ones((rank, rank), dtype=dtype)
    for m, g in enumerate(grams):
        if m != mode:
            v *= g
    f_new = m_mat @ np.linalg.pinv(v)
    if iteration == 1:
        norms = np.maximum(np.abs(f_new).max(axis=0), 1e-12)
    else:
        norms = np.linalg.norm(f_new, axis=0)
        norms = np.where(norms > 1e-12, norms, 1.0)
    factor = np.ascontiguousarray(f_new / norms, dtype=dtype)
    return factor, norms.astype(dtype, copy=False), factor.T @ factor


#: Spans whose durations make up a replayed decomposition.
PHASES = ("cpd.init", "kernels.prepare", "dist.decompose", "dist.spawn",
          "kernels.mttkrp", "cpd.update", "dist.gram", "cpd.fit")


def replay(R, state, rec: SpanRecorder) -> "tuple[int, float, list]":
    """Replay one decomposition through the public layer calls; returns
    the root span id, the final fit and, for ``dist-p2``, each
    distributed MTTKRP's (wall seconds, ``DistMTTKRPResult``)."""
    spec, tensor, seed = state.spec, state.tensor, state.seed
    dist = state.workload == "dist-p2"
    dtype = tensor.values.dtype
    cleanup, calls = [], []
    with rec.span("replay", workload=state.workload) as root:
        try:
            if dist:
                grid = R.ProcessGrid((2, 1, 1))
                machine = R.power8_socket()
                with rec.span("dist.decompose"):
                    decomp = R.medium_grain_decompose(tensor, grid, seed=seed)
                with rec.span("dist.spawn"):
                    shm = R.ShmCluster(grid.n_ranks, R.required_capacity(
                        decomp, spec.rank, 1, dtype.itemsize))
                cleanup.append(shm.close)

                def mttkrp(mode, factors):
                    t0 = time.perf_counter()
                    res = R.distributed_mttkrp(
                        decomp, factors, mode, machine, None,
                        backend="process", shm=shm)
                    calls.append((time.perf_counter() - t0, res))
                    return res.output
            else:
                with rec.span("kernels.prepare"):
                    if spec.n_threads > 1:
                        ex = R.ParallelExecutor(spec.n_threads, "thread")
                        cleanup.append(ex.close)
                        plans = [ex.prepare(tensor, m, spec.kernel,
                                            **dict(spec.params))
                                 for m in range(tensor.order)]
                    else:
                        ex = kern = R.get_kernel(spec.kernel)
                        plans = [kern.prepare(tensor, m, **dict(spec.params))
                                 for m in range(tensor.order)]

                def mttkrp(mode, factors):
                    return ex.execute(plans[mode], factors)

            with rec.span("cpd.init"):
                factors = R.init_factors(tensor, spec.rank, "random", seed=seed)
                grams = [f.T @ f for f in factors]
                norm_x = float(np.linalg.norm(tensor.values))
                weights = np.ones(spec.rank, dtype=dtype)
            for it in range(1, spec.n_iters + 1):
                with rec.span("cpd.iteration", iteration=it):
                    for mode in range(tensor.order):
                        with rec.span("kernels.mttkrp", mode=mode):
                            m_mat = mttkrp(mode, factors)
                        with rec.span("cpd.update", mode=mode):
                            factors[mode], weights, grams[mode] = als_update(
                                m_mat, grams, mode, it, dtype)
                        if dist:
                            with rec.span("dist.gram"):
                                R.gram_allreduce(shm, grid,
                                                 grams[mode] / grid.n_ranks)
                    with rec.span("cpd.fit"):
                        fit = R.KruskalTensor(weights, factors).fit(tensor, norm_x)
        finally:
            for close in cleanup:
                close()
    return root, fit, calls


def phase_seconds(rec: SpanRecorder, root: int) -> "dict[str, float]":
    """Total duration per phase name inside one replay tree."""
    totals: dict[str, float] = {}
    stack = [root]
    while stack:
        sid = stack.pop()
        stack.extend(rec.children(sid))
        name = rec.spans[sid]["name"]
        totals[name] = totals.get(name, 0.0) + rec.duration(sid)
    return totals


# ----------------------------------------------------------------------
# layer probes shared by every workload
def probe_plan(R, rec, tensor, mode, kernel, params, factors, reps):
    """Time one plan through the kernel layer (serial ``Kernel.prepare``
    / ``execute``) and the exec layer (2-thread ``ParallelExecutor``
    against the serial executor on the same sub-plans); returns the
    timings and the computed model numbers."""
    rank = next(f for f in factors if f is not None).shape[1]
    kern = R.get_kernel(kernel)
    machine = R.power8_socket()
    out: dict = {}
    with rec.span("probe", kernel=kernel, mode=mode):
        t0 = time.perf_counter()
        with rec.span("kernels.prepare", mode=mode):
            plan = kern.prepare(tensor, mode, **params)
        out["prepare_s"] = time.perf_counter() - t0
        serial = []
        for _ in range(reps):
            t0 = time.perf_counter()
            with rec.span("kernels.mttkrp", mode=mode):
                kern.execute(plan, factors)
            serial.append(time.perf_counter() - t0)
        out["mttkrp_s"] = median(serial)
        out["flops"] = R.mttkrp_flops(plan, rank)
        out["model_s"] = R.predict_time(plan, rank, machine).total
        out["model_bytes"] = R.estimate_traffic(
            plan, rank, machine, itemsize=tensor.values.dtype.itemsize
        ).total_bytes
        with R.ParallelExecutor(N_THREADS, "thread") as threaded:
            t0 = time.perf_counter()
            with rec.span("exec.prepare", mode=mode):
                pplan = threaded.prepare(tensor, mode, kern, **params)
            out["exec_prepare_s"] = time.perf_counter() - t0
            walls, imbalance, busy = [], [], []
            for _ in range(reps):
                t0 = time.perf_counter()
                with rec.span("exec.mttkrp", mode=mode):
                    threaded.execute(pplan, factors)
                walls.append(time.perf_counter() - t0)
                report = threaded.last_report
                imbalance.append(report.imbalance)
                busy.append(sum(report.thread_times_s) / (N_THREADS * walls[-1]))
        inline = R.ParallelExecutor(N_THREADS, "serial")
        serial_exec = []
        for _ in range(reps):
            t0 = time.perf_counter()
            with rec.span("exec.serial", mode=mode):
                inline.execute(pplan, factors)
            serial_exec.append(time.perf_counter() - t0)
    out.update(exec_s=median(walls), exec_serial_s=median(serial_exec),
               imbalance=median(imbalance), busy_frac=median(busy))
    return out


def layer_metrics(probes: "list[tuple[int, dict]]") -> "dict[str, float]":
    """Kernel- and exec-layer metrics from ``(mode, probe)`` pairs: sums
    over the plans a workload uses, per-mode medians for MTTKRP time."""
    def total(key):
        return sum(p[key] for _, p in probes)

    metrics = {
        "kernels.prepare_s": total("prepare_s"),
        "kernels.gflops": total("flops") / total("mttkrp_s") / 1e9,
        "kernels.model_s": total("model_s"),
        "kernels.model_bytes": total("model_bytes"),
        "exec.mttkrp_s": total("exec_s"),
        "exec.speedup": total("exec_serial_s") / total("exec_s"),
        "exec.imbalance": median([p["imbalance"] for _, p in probes]),
        "exec.busy_frac": median([p["busy_frac"] for _, p in probes]),
    }
    for mode in range(3):
        metrics[f"kernels.mttkrp_s.m{mode}"] = median(
            [p["mttkrp_s"] for m, p in probes if m == mode])
    return metrics


# ----------------------------------------------------------------------
# the two kinds of run
def check_result(state, result, first) -> bool:
    """A decomposition call is correct when it ran every iteration, its
    fits are finite and it repeats the first call's trajectory bitwise
    (same seed, same inputs)."""
    fits = list(result.fits)
    ok = len(fits) == state.spec.n_iters and all(map(math.isfinite, fits))
    ok = ok and result.model.weights.dtype == state.tensor.values.dtype
    if state.workload == "dist-p2":
        ok = ok and result.measured_comm_bytes == result.comm_bytes
    return ok and (first is None or fits == list(first.fits))


def reference_checks(R, state, result, log) -> int:
    """Failures among the checks of a call's output against the
    benchmark's references: an independent fit of the returned model,
    and the fit of an ALS replay (``cp_als`` for ``dist-p2``, whose
    trajectory must equal the shared-memory run's)."""
    dtype = state.tensor.values.dtype
    fit = result.final_fit
    if state.workload == "dist-p2":
        ref = decompose_serial(R, state).final_fit
    else:
        ref = replay(R, state, SpanRecorder())[1]
    oracle = oracle_fit(state.tensor, result.model.weights, result.model.factors)
    failed = 0
    for name, value in (("reference", ref), ("oracle", oracle)):
        if not fits_agree(fit, value, dtype):
            log(f"fit {fit!r} disagrees with the {name} fit {value!r}")
            failed += 1
    return failed


def decompose_serial(R, state):
    spec = state.spec
    return R.cp_als(state.tensor, spec.rank, n_iters=spec.n_iters, tol=0.0,
                    kernel="splatt", seed=state.seed)


def timed_run(R, state, args, log) -> dict:
    """Whole calls back to back (at least 3) until the next one would end
    after ``args.seconds``."""
    samples, first, failed = [], None, 0
    start = time.perf_counter()
    while len(samples) < 3 or \
            time.perf_counter() - start + median(samples) <= args.seconds:
        t0 = time.perf_counter()
        last = decompose(R, state)
        samples.append(time.perf_counter() - t0)
        failed += not check_result(state, last, first)
        first = first or last
    # No tail percentile: a run holds 6-21 calls, too few for any
    # percentile above the median to have ten samples beyond it.
    metrics = {
        "latency_ms": median(samples) * 1e3,
        # before the reference checks, whose buffers are not the program's
        "peak_rss_mb": peak_rss_mb(),
    }
    failed += reference_checks(R, state, last, log)
    # ops: the warm-up, every timed call and the two reference checks
    return {"attempted": 1 + len(samples) + 2, "failed": failed,
            "metrics": metrics}


def traced_run(R, state, args, log) -> dict:
    """Untraced calls alternating with traced replays, so drift in the
    host's speed reaches both sides of ``trace.coverage`` alike; then the
    kernel/exec probes on the workload's own tensor and plans."""
    spec, tensor = state.spec, state.tensor
    rec = SpanRecorder()
    samples, roots, failed = [], [], 0
    start = time.perf_counter()
    while len(roots) < 2 or time.perf_counter() - start + samples[-1] + \
            rec.duration(roots[-1]) <= 0.7 * args.seconds:
        t0 = time.perf_counter()
        prog = decompose(R, state)
        samples.append(time.perf_counter() - t0)
        failed += not check_result(state, prog, None)
        root, fit, calls = replay(R, state, rec)
        roots.append(root)
        if not fits_agree(prog.final_fit, fit, tensor.values.dtype):
            log(f"replayed fit {fit!r} != program fit {prog.final_fit!r}")
            failed += 1
    untraced = median(samples)
    per_root = [phase_seconds(rec, r) for r in roots]

    def phase(name):
        return median([p.get(name, 0.0) for p in per_root])

    n = spec.n_iters
    iter_s = phase("cpd.iteration") / n
    covered = [sum(p.get(k, 0.0) for k in PHASES) for p in per_root]
    metrics = {
        "cpd.init_s": phase("cpd.init"),
        "cpd.update_s": phase("cpd.update") / n,
        "cpd.fit_s": phase("cpd.fit") / n,
        "cpd.iter_s": iter_s,
        "cpd.fit_share": phase("cpd.fit") / n / iter_s,
        "cpd.mttkrp_share": phase("kernels.mttkrp") / n / iter_s,
        "trace.coverage": median([c / u for c, u in zip(covered, samples)]),
        "trace.overhead_frac": median(
            [rec.duration(r) / u for r, u in zip(roots, samples)]) - 1.0,
    }
    if state.workload != "dist-p2" and not 0.9 <= metrics["trace.coverage"] <= 1.1:
        log(f"trace coverage {metrics['trace.coverage']:.3f} outside [0.9, 1.1]")
        failed += 1

    kernel, params = spec.kernel, dict(spec.params)
    if state.workload == "dist-p2":
        metrics.update(dist_metrics(R, state, calls, per_root, untraced))
        kernel, params = "splatt", {}
    factors = R.init_factors(tensor, spec.rank, "random", seed=state.seed)
    probes = []
    for mode in range(tensor.order):
        probes.append((mode, probe_plan(R, rec, tensor, mode, kernel, params,
                                        factors, PROBE_REPS[state.scale])))
    metrics.update(layer_metrics(probes))
    rec.write_chrome(args.trace_path)
    return {"attempted": 1 + 2 * len(samples), "failed": failed,
            "metrics": metrics}


def dist_metrics(R, state, calls, per_root, untraced) -> dict:
    """``dist`` layer numbers from the last replay's distributed MTTKRP
    results and every replay's spans, plus the serial ``cp_als`` baseline
    for the speed-up."""
    n = state.spec.n_iters
    t0 = time.perf_counter()
    decompose_serial(R, state)
    serial = time.perf_counter() - t0

    def per_iter(values):
        return sum(values) / n

    return {
        "dist.decompose_s": median([p["dist.decompose"] for p in per_root]),
        "dist.spawn_s": median([p["dist.spawn"] for p in per_root]),
        "dist.mttkrp_s": median([p["kernels.mttkrp"] for p in per_root]) / n,
        "dist.comm_s": per_iter([float(np.max(r.comm_seconds)) for _, r in calls]),
        "dist.compute_s": per_iter([r.max_compute_time for _, r in calls]),
        "dist.overhead_s": per_iter([w - r.total_time for w, r in calls]),
        "dist.gram_s": median([p["dist.gram"] for p in per_root]) / n,
        "dist.comm_bytes": per_iter([r.comm_bytes for _, r in calls]),
        "dist.measured_bytes": per_iter(
            [r.measured_comm_bytes for _, r in calls]),
        "dist.speedup": serial / untraced,
    }
