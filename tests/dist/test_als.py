"""Tests for distributed CP-ALS."""

import numpy as np
import pytest

from repro.blocking import RankBlocking
from repro.cpd import cp_als, init_factors
from repro.dist import ProcessGrid, distributed_cp_als
from repro.machine import power8_socket
from repro.tensor import poisson_tensor


@pytest.fixture(scope="module")
def problem():
    tensor = poisson_tensor((24, 30, 26), 3000, seed=17)
    init = init_factors(tensor, 4, method="random", seed=5)
    return tensor, init


MACHINE = power8_socket()


class TestEquivalence:
    def test_same_trajectory_as_shared_memory(self, problem):
        """Distributed and shared-memory ALS must walk the same fits."""
        tensor, init = problem
        shared = cp_als(
            tensor, 4, n_iters=4, tol=0.0, init=[f.copy() for f in init]
        )
        dist = distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 2, 1)),
            MACHINE,
            n_iters=4,
            tol=0.0,
            init=[f.copy() for f in init],
        )
        np.testing.assert_allclose(dist.fits, shared.fits, rtol=1e-8)

    def test_4d_same_trajectory(self, problem):
        tensor, init = problem
        shared = cp_als(
            tensor, 4, n_iters=3, tol=0.0, init=[f.copy() for f in init]
        )
        dist = distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 1, 1)),
            MACHINE,
            n_iters=3,
            tol=0.0,
            rank_groups=2,
            init=[f.copy() for f in init],
        )
        np.testing.assert_allclose(dist.fits, shared.fits, rtol=1e-8)

    def test_blocked_local_kernel_same_trajectory(self, problem):
        tensor, init = problem
        shared = cp_als(
            tensor, 4, n_iters=3, tol=0.0, init=[f.copy() for f in init]
        )
        dist = distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 1, 2)),
            MACHINE,
            n_iters=3,
            tol=0.0,
            init=[f.copy() for f in init],
            local_block_counts=(2, 2, 2),
            local_rank_blocking=RankBlocking(n_blocks=2),
        )
        np.testing.assert_allclose(dist.fits, shared.fits, rtol=1e-8)


class TestPlanReuse:
    def test_sim_builds_each_block_plan_once_per_run(self, problem, monkeypatch):
        import repro.dist.mttkrp as dist_mttkrp

        tensor, init = problem
        built = []
        real = dist_mttkrp.prepare_plan

        def counting(local, mode, *args):
            built.append(mode)
            return real(local, mode, *args)

        monkeypatch.setattr(dist_mttkrp, "prepare_plan", counting)
        distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 2, 1)),
            MACHINE,
            n_iters=3,
            tol=0.0,
            rank_groups=2,
            init=[f.copy() for f in init],
        )
        # Four blocks, three modes: one build each, shared by both layers
        # of the rank extension and by every iteration.
        assert sorted(built) == sorted(list(range(3)) * 4)


class TestAccounting:
    def test_time_and_bytes_accumulate(self, problem):
        tensor, init = problem
        dist = distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 2, 1)),
            MACHINE,
            n_iters=2,
            tol=0.0,
            init=[f.copy() for f in init],
        )
        assert dist.total_time > 0
        assert dist.comm_bytes > 0

    def test_more_iterations_cost_more(self, problem):
        tensor, init = problem
        one = distributed_cp_als(
            tensor, 4, ProcessGrid((2, 1, 1)), MACHINE,
            n_iters=1, tol=0.0, init=[f.copy() for f in init],
        )
        three = distributed_cp_als(
            tensor, 4, ProcessGrid((2, 1, 1)), MACHINE,
            n_iters=3, tol=0.0, init=[f.copy() for f in init],
        )
        assert three.total_time > one.total_time
        assert three.comm_bytes > one.comm_bytes

    def test_convergence_stops_early(self, problem):
        tensor, init = problem
        res = distributed_cp_als(
            tensor, 4, ProcessGrid((2, 1, 1)), MACHINE,
            n_iters=50, tol=1e-2, init=[f.copy() for f in init],
        )
        assert res.converged
        assert res.n_iters < 50
