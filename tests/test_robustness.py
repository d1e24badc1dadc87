"""Robustness / failure-injection tests: degenerate inputs must either
work or fail loudly with the library's own exception types."""

import numpy as np
import pytest

from repro.blocking import BlockGrid, RankBlocking, select_blocking
from repro.cpd import cp_als
from repro.dist import ProcessGrid, SimCluster, distributed_mttkrp, medium_grain_decompose
from repro.kernels import get_kernel
from repro.machine import power8_socket
from repro.perf import ConfigPlanner, predict_time
from repro.tensor import COOTensor
from repro.tune import Tuner
from repro.util.errors import ReproError


def empty_tensor(shape=(6, 7, 8)) -> COOTensor:
    return COOTensor(shape, np.empty((0, 3)), np.empty(0))


def singleton_tensor(shape=(6, 7, 8)) -> COOTensor:
    return COOTensor(shape, np.array([[1, 2, 3]]), np.array([2.0]))


MACHINE = power8_socket().scaled(1.0 / 64.0)


class TestEmptyTensor:
    def test_models_handle_empty(self):
        plan = get_kernel("splatt").prepare(empty_tensor(), 0)
        tb = predict_time(plan, 16, MACHINE)
        assert tb.total == 0.0

    def test_blocked_plans_handle_empty(self):
        plan = get_kernel("mb").prepare(empty_tensor(), 0, block_counts=(2, 2, 2))
        assert plan.block_stats() == []
        assert predict_time(plan, 16, MACHINE).total == 0.0

    def test_heuristic_survives_empty(self):
        t = empty_tensor()
        planner = ConfigPlanner(t, 0)
        choice = select_blocking(t, 0, 64, planner.evaluator(64, MACHINE))
        assert choice.cost == 0.0

    def test_cpd_on_empty(self):
        res = cp_als(empty_tensor(), 2, n_iters=2)
        assert np.isfinite(res.final_fit)

    def test_distributed_on_empty(self):
        t = empty_tensor()
        rng = np.random.default_rng(0)
        factors = [rng.random((n, 4)) for n in t.shape]
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=0)
        res = distributed_mttkrp(dec, factors, 0, MACHINE)
        assert np.all(res.output == 0.0)


class TestSingletonTensor:
    def test_tuner(self):
        cfg = Tuner(singleton_tensor(), 0, MACHINE).tune(32)
        assert cfg.cost > 0

    def test_all_kernels(self):
        t = singleton_tensor()
        rng = np.random.default_rng(1)
        factors = [rng.random((n, 3)) for n in t.shape]
        outs = [
            get_kernel("splatt").mttkrp(t, factors, 0),
            get_kernel("mb").mttkrp(t, factors, 0, block_counts=(2, 2, 2)),
            get_kernel("rankb").mttkrp(t, factors, 0, n_rank_blocks=1),
        ]
        for o in outs[1:]:
            np.testing.assert_allclose(o, outs[0])


class TestDegenerateShapes:
    def test_extent_one_modes(self):
        t = COOTensor((1, 9, 1), np.array([[0, 3, 0], [0, 7, 0]]), np.array([1.0, 2.0]))
        rng = np.random.default_rng(2)
        factors = [rng.random((n, 4)) for n in t.shape]
        out = get_kernel("splatt").mttkrp(t, factors, 0)
        assert out.shape == (1, 4)

    def test_grid_cannot_exceed_extent(self):
        with pytest.raises(ReproError):
            BlockGrid((1, 9, 1), (2, 2, 2))

    def test_rank_one_strips(self):
        rb = RankBlocking(block_cols=16)
        assert rb.strips(1) == [(0, 1)]


class TestClusterMisuse:
    def test_overlapping_group_rejected(self):
        cluster = SimCluster(4)
        with pytest.raises(ReproError):
            cluster.allgather([1, 1], [np.zeros(1), np.zeros(1)])

    def test_grid_larger_than_cluster_rejected(self):
        t = singleton_tensor()
        rng = np.random.default_rng(3)
        factors = [rng.random((n, 2)) for n in t.shape]
        dec = medium_grain_decompose(t, ProcessGrid((2, 2, 2)), seed=0)
        small = SimCluster(4)
        with pytest.raises(ReproError):
            distributed_mttkrp(dec, factors, 0, MACHINE, small)


class TestNumericalEdges:
    def test_huge_values_no_overflow_to_nan(self):
        t = COOTensor(
            (4, 4, 4), np.array([[0, 0, 0], [1, 1, 1]]), np.array([1e150, 1e150])
        )
        rng = np.random.default_rng(4)
        factors = [rng.random((4, 2)) for _ in range(3)]
        out = get_kernel("splatt").mttkrp(t, factors, 0)
        assert np.all(np.isfinite(out))

    def test_zero_values_allowed(self):
        t = COOTensor((3, 3, 3), np.array([[0, 0, 0]]), np.array([0.0]))
        rng = np.random.default_rng(5)
        factors = [rng.random((3, 2)) for _ in range(3)]
        out = get_kernel("splatt").mttkrp(t, factors, 0)
        np.testing.assert_allclose(out, 0.0)
