"""Distributed MTTKRP correctness and accounting tests."""

import numpy as np
import pytest

from repro.blocking import RankBlocking
from repro.dist import (
    ProcessGrid,
    distributed_mttkrp,
    medium_grain_decompose,
)
from repro.kernels import get_kernel
from repro.machine import power8_socket
from repro.tensor import clustered_tensor, poisson_tensor


@pytest.fixture(scope="module")
def problem():
    t = poisson_tensor((40, 60, 50), 6000, seed=11)
    rng = np.random.default_rng(3)
    factors = [rng.standard_normal((n, 32)) for n in t.shape]
    refs = [get_kernel("splatt").mttkrp(t, factors, m) for m in range(3)]
    return t, factors, refs


MACHINE = power8_socket()


class TestNumericalExactness:
    @pytest.mark.parametrize("dims", [(1, 1, 1), (2, 2, 2), (4, 1, 2), (1, 3, 1)])
    def test_3d_matches_shared_memory(self, problem, dims):
        t, factors, refs = problem
        dec = medium_grain_decompose(t, ProcessGrid(dims), seed=7)
        res = distributed_mttkrp(dec, factors, 0, MACHINE)
        np.testing.assert_allclose(res.output, refs[0], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_all_modes(self, problem, mode):
        t, factors, refs = problem
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=7)
        res = distributed_mttkrp(dec, factors, mode, MACHINE)
        np.testing.assert_allclose(res.output, refs[mode], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("t_groups", [2, 4])
    def test_4d_matches_shared_memory(self, problem, t_groups):
        t, factors, refs = problem
        dec = medium_grain_decompose(t, ProcessGrid((2, 1, 2)), seed=7)
        res = distributed_mttkrp(
            dec, factors, 0, MACHINE, rank_groups=t_groups
        )
        np.testing.assert_allclose(res.output, refs[0], rtol=1e-10, atol=1e-12)

    def test_blocked_local_kernel_exact(self, problem):
        t, factors, refs = problem
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=7)
        res = distributed_mttkrp(
            dec,
            factors,
            0,
            MACHINE,
            local_block_counts=(2, 4, 2),
            local_rank_blocking=RankBlocking(n_blocks=2),
        )
        np.testing.assert_allclose(res.output, refs[0], rtol=1e-10, atol=1e-12)

    def test_clustered_data(self):
        t = clustered_tensor((50, 50, 50), 4000, seed=13)
        rng = np.random.default_rng(14)
        factors = [rng.standard_normal((n, 8)) for n in t.shape]
        ref = get_kernel("splatt").mttkrp(t, factors, 0)
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 2)), seed=15)
        res = distributed_mttkrp(dec, factors, 0, MACHINE, rank_groups=2)
        np.testing.assert_allclose(res.output, ref, rtol=1e-10, atol=1e-12)


class TestAccounting:
    def test_single_process_no_comm_volume(self, problem):
        t, factors, _ = problem
        dec = medium_grain_decompose(t, ProcessGrid((1, 1, 1)), seed=7)
        res = distributed_mttkrp(dec, factors, 0, MACHINE)
        assert res.comm_bytes == 0.0

    def test_comm_volume_grows_with_processes(self, problem):
        t, factors, _ = problem
        vols = []
        for dims in ((1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2)):
            dec = medium_grain_decompose(t, ProcessGrid(dims), seed=7)
            res = distributed_mttkrp(dec, factors, 0, MACHINE)
            vols.append(res.comm_bytes)
        assert vols == sorted(vols)

    def test_compute_shrinks_with_processes(self, problem):
        t, factors, _ = problem
        dec1 = medium_grain_decompose(t, ProcessGrid((1, 1, 1)), seed=7)
        dec8 = medium_grain_decompose(t, ProcessGrid((2, 2, 2)), seed=7)
        one = distributed_mttkrp(dec1, factors, 0, MACHINE)
        eight = distributed_mttkrp(dec8, factors, 0, MACHINE)
        assert eight.max_compute_time < one.max_compute_time

    def test_4d_reduces_comm_vs_3d_at_same_p(self, problem):
        """The paper's core claim: rank groups keep more nonzeros per
        process without adding communication, beyond one allgather."""
        t, factors, _ = problem
        p = 8
        dec3 = medium_grain_decompose(t, ProcessGrid((2, 2, 2)), seed=7)
        res3 = distributed_mttkrp(dec3, factors, 0, MACHINE)
        dec4 = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=7)
        res4 = distributed_mttkrp(dec4, factors, 0, MACHINE, rank_groups=2)
        assert res4.comm_bytes < res3.comm_bytes

    def test_grid_label(self, problem):
        t, factors, _ = problem
        dec = medium_grain_decompose(t, ProcessGrid((2, 1, 2)), seed=7)
        res = distributed_mttkrp(dec, factors, 0, MACHINE, rank_groups=2)
        assert res.grid_label == "2x1x2x2"

    def test_total_time_covers_compute(self, problem):
        t, factors, _ = problem
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=7)
        res = distributed_mttkrp(dec, factors, 0, MACHINE)
        assert res.total_time >= res.max_compute_time
