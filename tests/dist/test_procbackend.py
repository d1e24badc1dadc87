"""Process-backend distributed MTTKRP/ALS: bitwise parity with the sim.

The contract under test: ``backend="process"`` reproduces the sim
backend *bitwise* (same group-order summation), measured communication
bytes equal the ``CommLedger`` formula accounting, float32 stays float32
end-to-end, and both backends track serial execution to float-precision
tolerance (block partial sums reorder additions, so bitwise-vs-serial is
not a meaningful target).
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

import repro.dist.als as dist_als
from repro.cpd.als import cp_als
from repro.dist import (
    ProcessGrid,
    SimCluster,
    distributed_cp_als,
    distributed_mttkrp,
    medium_grain_decompose,
)
from repro.dist import procbackend
from repro.dist.costmodel import infiniband_edr
from repro.dist.procbackend import required_capacity
from repro.dist.shmcomm import ShmCluster
from repro.exec.pool import WorkerPool
from repro.kernels.base import get_kernel
from repro.machine import power8_socket
from repro.tensor import poisson_tensor
from repro.tensor.coo import COOTensor
from repro.util.errors import DistributionError
from repro.util.rng import resolve_rng

pytestmark = pytest.mark.parallel_exec

MACHINE = power8_socket()


@pytest.fixture(autouse=True)
def no_leaked_segments():
    yield
    leftovers = [
        f for f in os.listdir("/dev/shm") if f.startswith("reprodist-")
    ] if os.path.isdir("/dev/shm") else []
    assert leftovers == []


def _tensor(dtype):
    t = poisson_tensor((24, 30, 27), 2500, seed=11)
    return COOTensor(t.shape, t.indices, t.values.astype(dtype), validate=False)


def _factors(tensor, rank, dtype, seed=7):
    rng = resolve_rng(seed)
    return [
        np.ascontiguousarray(rng.standard_normal((n, rank)), dtype=dtype)
        for n in tensor.shape
    ]


def _run_both(tensor, dims, rank_groups, mode, rank=6):
    grid = ProcessGrid(dims)
    decomp = medium_grain_decompose(tensor, grid, seed=5)
    factors = _factors(tensor, rank, tensor.values.dtype)
    full = ProcessGrid(dims, rank_groups)
    sim = distributed_mttkrp(
        decomp,
        factors,
        mode,
        MACHINE,
        SimCluster(full.n_ranks, infiniband_edr()),
        rank_groups=rank_groups,
    )
    proc = distributed_mttkrp(
        decomp, factors, mode, MACHINE, rank_groups=rank_groups, backend="process"
    )
    return sim, proc, factors


class TestMTTKRPParity:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_float64_bitwise_and_bytes(self, mode):
        tensor = _tensor(np.float64)
        sim, proc, factors = _run_both(tensor, (2, 2, 1), 1, mode)
        assert proc.backend == "process"
        assert proc.output.dtype == np.float64
        np.testing.assert_array_equal(sim.output, proc.output)
        assert sim.comm_bytes == proc.comm_bytes == proc.measured_comm_bytes
        # Both backends track the serial kernel to float64 tolerance.
        ref = get_kernel("splatt").mttkrp(tensor, factors, mode)
        np.testing.assert_allclose(proc.output, ref, rtol=1e-10, atol=1e-12)

    def test_float32_stays_float32(self):
        tensor = _tensor(np.float32)
        sim, proc, factors = _run_both(tensor, (2, 2, 1), 1, 0)
        assert sim.output.dtype == np.float32
        assert proc.output.dtype == np.float32
        np.testing.assert_array_equal(sim.output, proc.output)
        assert sim.comm_bytes == proc.comm_bytes == proc.measured_comm_bytes
        ref = get_kernel("splatt").mttkrp(tensor, factors, 0)
        np.testing.assert_allclose(proc.output, ref, rtol=2e-4, atol=1e-5)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_rank_extended_4d_bitwise(self, dtype):
        tensor = _tensor(dtype)
        sim, proc, _ = _run_both(tensor, (2, 1, 1), 2, 0)
        assert proc.output.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(sim.output, proc.output)
        assert sim.comm_bytes == proc.comm_bytes == proc.measured_comm_bytes

    def test_measured_time_reported(self):
        tensor = _tensor(np.float64)
        _, proc, _ = _run_both(tensor, (2, 1, 1), 1, 0)
        assert proc.comm_seconds is not None
        assert proc.comm_seconds.shape == (2,)
        assert proc.total_time > 0.0

    def test_bad_backend_rejected(self):
        tensor = _tensor(np.float64)
        grid = ProcessGrid((2, 1, 1))
        decomp = medium_grain_decompose(tensor, grid, seed=5)
        factors = _factors(tensor, 6, np.float64)
        with pytest.raises(DistributionError, match="backend"):
            distributed_mttkrp(
                decomp, factors, 0, MACHINE, backend="mpi"
            )


class TestObservability:
    def test_spans_and_counters_emitted(self):
        from repro.obs import Tracer, use_tracer

        tensor = _tensor(np.float64)
        tracer = Tracer()
        with use_tracer(tracer):
            _, proc, _ = _run_both(tensor, (2, 1, 1), 1, 0)
        comm_spans = tracer.spans_named("dist.comm")
        compute_spans = tracer.spans_named("dist.compute")
        assert len(comm_spans) == len(compute_spans) == 2
        assert {s.meta["grid"] for s in comm_spans} == {"2x1x1"}
        measured = sum(s.meta["bytes"] for s in comm_spans)
        assert measured == proc.measured_comm_bytes
        assert tracer.counters["dist.comm_bytes"] == proc.measured_comm_bytes
        assert tracer.counters["dist.ranks"] == 2
        assert tracer.counters["dist.collectives"] > 0


class TestALSParity:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_process_matches_sim_bitwise(self, dtype):
        tensor = _tensor(dtype)
        grid = ProcessGrid((2, 2, 1))
        sim = distributed_cp_als(tensor, 6, grid, MACHINE, n_iters=2, seed=1)
        proc = distributed_cp_als(
            tensor, 6, grid, MACHINE, n_iters=2, seed=1, backend="process"
        )
        assert proc.backend == "process"
        for a, b in zip(sim.model.factors, proc.model.factors):
            assert a.dtype == np.dtype(dtype) and b.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(sim.model.weights, proc.model.weights)
        assert sim.fits == proc.fits
        assert proc.measured_comm_bytes == proc.comm_bytes == sim.comm_bytes

    def test_fit_trajectory_tracks_serial(self):
        tensor = _tensor(np.float64)
        grid = ProcessGrid((2, 1, 1))
        proc = distributed_cp_als(
            tensor, 6, grid, MACHINE, n_iters=2, seed=1, backend="process"
        )
        serial = cp_als(tensor, 6, n_iters=2, seed=1)
        np.testing.assert_allclose(proc.fits, serial.fits, rtol=1e-8)


def _misplaced_nonzero(tensor, grid, seed=5):
    """A decomposition whose block (0, 0, 0) holds one nonzero that lies
    outside its bounds (taken from block (1, 0, 0)): PL406."""
    decomp = medium_grain_decompose(tensor, grid, seed=seed)
    src, dst = decomp.blocks[(1, 0, 0)], decomp.blocks[(0, 0, 0)]
    moved = COOTensor(
        tensor.shape,
        np.concatenate([dst.tensor.indices, src.tensor.indices[:1]]),
        np.concatenate([dst.tensor.values, src.tensor.values[:1]]),
        validate=False,
    )
    kept = COOTensor(
        tensor.shape,
        src.tensor.indices[1:],
        src.tensor.values[1:],
        validate=False,
    )
    decomp.blocks[(0, 0, 0)] = replace(dst, tensor=moved)
    decomp.blocks[(1, 0, 0)] = replace(src, tensor=kept)
    return decomp


class TestOneTimeVerification:
    @pytest.mark.parametrize("backend", ["sim", "process"])
    def test_unsound_decomposition_rejected_before_any_mttkrp(
        self, backend, monkeypatch
    ):
        tensor = _tensor(np.float64)
        grid = ProcessGrid((2, 1, 1))
        bad = _misplaced_nonzero(tensor, grid)
        ran = []
        monkeypatch.setattr(
            dist_als, "medium_grain_decompose", lambda *a, **k: bad
        )
        monkeypatch.setattr(
            dist_als, "_run_mttkrp", lambda *a, **k: ran.append(a)
        )
        with pytest.raises(DistributionError, match="unsound decomposition"):
            distributed_cp_als(
                tensor, 6, grid, MACHINE, n_iters=2, backend=backend
            )
        assert ran == []
        factors = _factors(tensor, 6, np.float64)
        for mode in range(3):
            with pytest.raises(
                DistributionError, match="unsound decomposition"
            ):
                distributed_mttkrp(
                    bad, factors, mode, MACHINE, backend=backend
                )


def _plans_held(base):
    """Worker task: plans this worker keeps for one cluster."""
    return sum(
        len(block.plans)
        for key, block in procbackend._BLOCK_CACHE.items()
        if key[0] == base
    )


class TestPlanCache:
    def test_each_rank_builds_each_mode_once_per_run(self):
        from repro.obs import Tracer, use_tracer

        tensor = _tensor(np.float64)
        tracer = Tracer()
        with use_tracer(tracer):
            distributed_cp_als(
                tensor,
                6,
                ProcessGrid((2, 1, 1)),
                MACHINE,
                n_iters=3,
                tol=0.0,
                seed=1,
                backend="process",
            )
        builds = [
            (s.thread_name, s.meta["mode"])
            for s in tracer.spans_named("dist.prepare")
        ]
        assert sorted(builds) == sorted(
            (f"dist-rank-{r}", m) for r in range(2) for m in range(3)
        )
        assert len(tracer.spans_named("dist.compute")) == 2 * 3 * 3

    def test_close_drops_worker_plans(self):
        tensor = _tensor(np.float64)
        grid = ProcessGrid((2, 1, 1))
        decomp = medium_grain_decompose(tensor, grid, seed=5)
        factors = _factors(tensor, 6, np.float64)
        pool = WorkerPool(2, backend="process", name="repro-dist-test")
        try:
            cluster = ShmCluster(
                2, required_capacity(decomp, 6, 1, 8), pool=pool
            )
            base = cluster.layout.base
            try:
                for _ in range(2):
                    for mode in range(3):
                        distributed_mttkrp(
                            decomp,
                            factors,
                            mode,
                            MACHINE,
                            backend="process",
                            shm=cluster,
                        )
                held = [
                    pool.submit_pinned(r, _plans_held, base).result(timeout=30)
                    for r in range(2)
                ]
                assert held == [3, 3]
            finally:
                cluster.close()
            held = [
                pool.submit_pinned(r, _plans_held, base).result(timeout=30)
                for r in range(2)
            ]
            assert held == [0, 0]
        finally:
            pool.shutdown()
