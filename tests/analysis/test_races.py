"""Blocked-schedule race detector (RS2xx) and its runtime wiring."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.races import (
    TaskWriteSet,
    check_schedule,
    verify_fold_covers_conflicts,
    verify_safe,
    write_sets_for_boundaries,
    write_sets_for_grid,
)
from repro.blocking.grid import BlockGrid
from repro.dist.grid import ProcessGrid
from repro.dist.mediumgrain import medium_grain_decompose
from repro.machine import power8
from repro.perf.parallel import parallel_predict_time, partition_rows
from repro.util.errors import ScheduleError

CORE = power8(1).scaled(1.0 / 64.0)


class TestWriteSetOverlap:
    def test_disjoint_intervals(self):
        a = TaskWriteSet("a", 0, 10)
        b = TaskWriteSet("b", 10, 20)
        assert a.overlap(b) is None

    def test_overlapping_intervals(self):
        a = TaskWriteSet("a", 0, 15)
        b = TaskWriteSet("b", 10, 20)
        assert a.overlap(b) == (10, 15, 5)


class TestGridSchedules:
    SHAPE = (30, 20, 10)

    def test_output_blocked_grid_is_safe(self):
        grid = BlockGrid(self.SHAPE, (4, 1, 1))
        report = check_schedule(write_sets_for_grid(grid, mode=0), mode=0)
        assert report.safe
        assert report.diagnostics() == []
        assert "safe" in report.describe()

    def test_non_output_blocking_conflicts(self):
        # Blocks differing only in modes 1/2 share the whole mode-0 range.
        grid = BlockGrid(self.SHAPE, (1, 2, 2))
        report = check_schedule(write_sets_for_grid(grid, mode=0), mode=0)
        assert not report.safe
        assert report.n_conflict_pairs == 6  # C(4, 2) blocks, all colliding
        rules = [d.rule for d in report.diagnostics()]
        assert rules.count("RS202") == 1  # degenerate: one output-mode block
        assert rules.count("RS201") == 6
        assert all(d.hint for d in report.diagnostics())

    def test_mixed_grid_conflicts_without_degeneracy(self):
        grid = BlockGrid(self.SHAPE, (2, 2, 1))
        report = check_schedule(write_sets_for_grid(grid, mode=0), mode=0)
        assert not report.safe
        rules = [d.rule for d in report.diagnostics()]
        assert "RS202" not in rules  # two output blocks, not degenerate
        assert rules.count("RS201") == report.n_conflict_pairs == 2

    def test_parallel_output_axis_always_safe(self):
        grid = BlockGrid(self.SHAPE, (3, 2, 2))
        for mode in range(3):
            tasks = write_sets_for_grid(grid, mode, parallel="output")
            assert check_schedule(tasks, mode).safe

    def test_bad_parallel_kind_rejected(self):
        grid = BlockGrid(self.SHAPE, (2, 1, 1))
        with pytest.raises(ValueError, match="parallel"):
            write_sets_for_grid(grid, 0, parallel="rows")


class TestSlicePartition:
    def test_partition_rows_boundaries_safe(self, small_tensor):
        boundaries = partition_rows(small_tensor, 0, 4)
        report = verify_safe(
            write_sets_for_boundaries(boundaries), 0, "slice partition"
        )
        assert report.safe
        assert len(report.tasks) == 4


class TestRuntimeWiring:
    def test_overlapping_partition_rejected(self, small_tensor, monkeypatch):
        # The time model vets its partition before predicting anything.
        import repro.perf.parallel as parallel_mod

        monkeypatch.setattr(
            parallel_mod, "partition_rows", lambda *a: np.array([0, 10, 5, 15])
        )
        with pytest.raises(ScheduleError, match="threaded MTTKRP schedule"):
            parallel_predict_time(small_tensor, 0, 8, CORE, 2)

    def test_default_partition_still_works(self, small_tensor):
        est = parallel_predict_time(small_tensor, 0, 8, CORE, 4)
        assert est.makespan > 0

    def test_verify_safe_raises_with_context(self):
        tasks = [TaskWriteSet("worker 0", 0, 10), TaskWriteSet("worker 1", 5, 15)]
        with pytest.raises(ScheduleError, match="my schedule"):
            verify_safe(tasks, 1, "my schedule")


class TestDistributedFold:
    def test_fold_covers_medium_grain_conflicts(self, small_tensor):
        decomp = medium_grain_decompose(
            small_tensor, ProcessGrid((2, 2, 1)), mode_perm=(0, 1, 2)
        )
        report = verify_fold_covers_conflicts(decomp, mode=0)
        # Processes sharing an output chunk conflict by design; the fold
        # reduce-scatters them, so verification passes.
        assert not report.safe

    def test_cross_slab_conflict_rejected(self):
        # A corrupted decomposition: two processes in *different* output
        # slabs write overlapping rows — the fold never reduces them.
        block = lambda bounds: SimpleNamespace(bounds=bounds)
        decomp = SimpleNamespace(
            blocks={
                (0, 0, 0): block(((0, 10), (0, 5), (0, 5))),
                (1, 0, 0): block(((5, 20), (0, 5), (0, 5))),
            },
            axis_of_mode=lambda mode: 0,
        )
        with pytest.raises(ScheduleError, match="different output slabs"):
            verify_fold_covers_conflicts(decomp, mode=0)

    def test_distributed_mttkrp_runs_its_check(self, small_tensor, factors_for):
        # End-to-end: the driver invokes the verifier and still matches
        # the shared-memory kernel bit-for-bit.
        from repro.dist.mttkrp import distributed_mttkrp
        from repro.kernels.base import get_kernel
        from repro.machine import power8 as p8

        factors = factors_for(small_tensor, 4)
        decomp = medium_grain_decompose(small_tensor, ProcessGrid((2, 1, 1)))
        result = distributed_mttkrp(decomp, factors, 0, p8(1))
        kernel = get_kernel("splatt")
        plan = kernel.prepare(small_tensor, 0)
        np.testing.assert_allclose(
            result.output, kernel.execute(plan, factors), rtol=1e-12
        )
