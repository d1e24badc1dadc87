"""Parallel schedules write each output row exactly once: the plan
verifier's tiling proof (PL401/PL402/PL405) gating the thread partition
and the distributed fold."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.plans import tiling_report, verify_decomposition, verify_grid
from repro.blocking.grid import BlockGrid
from repro.dist.grid import ProcessGrid
from repro.dist.mediumgrain import medium_grain_decompose
from repro.machine import power8
from repro.perf.parallel import parallel_predict_time, partition_rows
from repro.util.errors import DistributionError, ScheduleError

CORE = power8(1).scaled(1.0 / 64.0)


def _patch_partition(monkeypatch, boundaries):
    """Make the greedy slice partition (below the gate in
    ``partition_rows``) return ``boundaries``."""
    import repro.perf.parallel as parallel_mod

    monkeypatch.setattr(
        parallel_mod, "greedy_slice_partition", lambda *a: np.array(boundaries)
    )


class TestWriteSetOverlap:
    def test_disjoint_intervals(self):
        assert tiling_report([(0, 10), (10, 20)], 20) == ([], [], [])

    def test_overlapping_intervals(self):
        gaps, overlaps, malformed = tiling_report([(0, 15), (10, 20)], 20)
        assert overlaps == [(10, 15)]
        assert gaps == [] and malformed == []


class TestGridSchedules:
    SHAPE = (30, 20, 10)

    def test_output_blocked_grid_is_safe(self):
        # One worker per output-mode block writes disjoint rows.
        grid = BlockGrid(self.SHAPE, (4, 1, 1))
        assert len(grid.boundaries[0]) == 5
        assert verify_grid(grid) == []

    def test_parallel_output_axis_always_safe(self):
        grid = BlockGrid(self.SHAPE, (3, 2, 2))
        assert verify_grid(grid) == []


class TestSlicePartition:
    def test_partition_rows_boundaries_safe(self, small_tensor):
        ranges = partition_rows(small_tensor, 0, 4)
        assert len(ranges) == 4
        assert tiling_report(ranges, small_tensor.shape[0]) == ([], [], [])


class TestRuntimeWiring:
    def test_overlapping_partition_rejected(self, small_tensor, monkeypatch):
        # The time model vets its partition before predicting anything.
        _patch_partition(monkeypatch, [0, 10, 5, 18])
        with pytest.raises(ScheduleError, match="PL402"):
            parallel_predict_time(small_tensor, 0, 8, CORE, 3)

    def test_default_partition_still_works(self, small_tensor):
        est = parallel_predict_time(small_tensor, 0, 8, CORE, 4)
        assert est.makespan > 0

    def test_schedule_error_names_its_context(self, small_tensor, monkeypatch):
        # The error names the schedule, the mode and the uncovered rows.
        _patch_partition(monkeypatch, [0, 10, 20])
        with pytest.raises(
            ScheduleError,
            match=r"parallel MTTKRP schedule: PL401 mode-1 thread partition: "
            r"indices \[20, 25\)",
        ):
            partition_rows(small_tensor, 1, 2)


class TestDistributedFold:
    def test_fold_covers_medium_grain_conflicts(self, small_tensor):
        decomp = medium_grain_decompose(
            small_tensor, ProcessGrid((2, 2, 1)), mode_perm=(0, 1, 2)
        )
        # Processes sharing an output chunk write the same rows by design
        # (the fold reduce-scatters them inside the slab) ...
        slab0 = {
            block.bounds[0] for c, block in decomp.blocks.items() if c[0] == 0
        }
        assert len(slab0) == 1
        # ... and the slabs still tile the index space exactly once.
        assert verify_decomposition(decomp) == []

    def test_cross_slab_conflict_rejected(self, small_tensor, factors_for):
        # A corrupted decomposition: the slab-1 processes' mode-0 bounds
        # reach 3 rows into slab 0, so those rows are written by two
        # slabs and the fold never reduces them.
        from repro.dist.mttkrp import distributed_mttkrp

        decomp = medium_grain_decompose(
            small_tensor, ProcessGrid((2, 2, 1)), mode_perm=(0, 1, 2)
        )
        for coords, block in decomp.blocks.items():
            if coords[0] == 1:
                (lo, hi), *rest = block.bounds
                decomp.blocks[coords] = dataclasses.replace(
                    block, bounds=((lo - 3, hi), *rest)
                )
        factors = factors_for(small_tensor, 4)
        with pytest.raises(DistributionError, match="unsound decomposition"):
            distributed_mttkrp(decomp, factors, 0, power8(1))

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
