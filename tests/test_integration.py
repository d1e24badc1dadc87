"""End-to-end integration tests tying the subsystems together.

Each test exercises a full user workflow at reduced scale: dataset →
analysis → tuning → blocked decomposition → distributed consistency.
"""

import numpy as np
import pytest

from repro.cpd import cp_als, init_factors
from repro.dist import ProcessGrid, distributed_cp_als
from repro.kernels import get_kernel
from repro.machine import power8_socket
from repro.perf import performance_report, predict_time
from repro.tensor import analyze, load_dataset
from repro.tensor.datasets import DATASETS
from repro.tune import Tuner, TuningCache


@pytest.fixture(scope="module")
def workload():
    tensor = load_dataset("poisson2", nnz=40_000)
    machine = power8_socket().scaled(DATASETS["poisson2"].machine_scale)
    return tensor, machine


class TestTuneThenDecompose:
    def test_full_pipeline(self, workload):
        """analyze -> tune -> run the tuned kernel inside CP-ALS ->
        verify the trajectory matches the baseline kernel's."""
        tensor, machine = workload

        stats = analyze(tensor)
        assert stats.nnz == tensor.nnz

        tuner = Tuner(tensor, 0, machine, cache=TuningCache())
        cfg = tuner.get_or_tune(64)
        assert cfg.speedup >= 1.0

        kernel_params = {}
        if cfg.block_counts is not None:
            kernel_name = "mb+rankb" if cfg.rank_blocking else "mb"
            kernel_params["block_counts"] = cfg.block_counts
        else:
            kernel_name = "rankb" if cfg.rank_blocking else "splatt"
        if cfg.rank_blocking is not None:
            kernel_params["rank_blocking"] = cfg.rank_blocking

        init = init_factors(tensor, 5, seed=9)
        tuned_run = cp_als(
            tensor,
            5,
            n_iters=3,
            tol=0.0,
            kernel=kernel_name,
            kernel_params=kernel_params,
            init=[f.copy() for f in init],
        )
        baseline_run = cp_als(
            tensor, 5, n_iters=3, tol=0.0, init=[f.copy() for f in init]
        )
        np.testing.assert_allclose(tuned_run.fits, baseline_run.fits, rtol=1e-8)

    def test_report_reflects_tuning(self, workload):
        """The tuned plan's predicted time must beat the baseline's, and
        the report must agree with predict_time."""
        tensor, machine = workload
        tuner = Tuner(tensor, 0, machine)
        cfg = tuner.get_or_tune(256)
        base_plan = get_kernel("splatt").prepare(tensor, 0)
        tuned_plan = tuner.planner.plan_for(cfg.block_counts, cfg.rank_blocking)
        t_base = predict_time(base_plan, 256, machine).total
        report = performance_report(tuned_plan, 256, machine)
        assert report.breakdown.total <= t_base
        assert report.breakdown.total == pytest.approx(cfg.cost, rel=1e-9)


class TestSharedVsDistributedVsMemoized:
    def test_three_drivers_agree(self, workload):
        """Shared-memory and distributed ALS walk the same trajectory
        from the same start."""
        tensor, machine = workload
        init = init_factors(tensor, 4, seed=11)
        shared = cp_als(
            tensor, 4, n_iters=3, tol=0.0, init=[f.copy() for f in init]
        )
        dist = distributed_cp_als(
            tensor,
            4,
            ProcessGrid((2, 2, 1)),
            machine,
            n_iters=3,
            tol=0.0,
            init=[f.copy() for f in init],
        )
        np.testing.assert_allclose(dist.fits, shared.fits, rtol=1e-8)


class TestDeterminism:
    def test_experiments_reproducible(self):
        """Identical seeds give identical datasets, tunings, and models —
        the property every benchmark table relies on."""
        a = load_dataset("nell2", nnz=5000)
        b = load_dataset("nell2", nnz=5000)
        assert a.equal(b)
        machine = power8_socket().scaled(DATASETS["nell2"].machine_scale)
        cfg_a = Tuner(a, 0, machine).tune(64)
        cfg_b = Tuner(b, 0, machine).tune(64)
        assert cfg_a.block_counts == cfg_b.block_counts
        assert cfg_a.cost == pytest.approx(cfg_b.cost)
