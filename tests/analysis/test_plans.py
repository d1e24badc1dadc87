"""Plan verifier (PL4xx): interval algebra, structure verifiers, AST pass."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.plans import (
    boundaries_to_intervals,
    scan_source,
    tiling_report,
    verify_boundaries,
    verify_capacity,
    verify_decomposition,
    verify_grid,
    verify_plan,
    verify_process_grid,
    verify_rank_blocking,
    verify_rank_extension,
)
from repro.blocking.grid import BlockGrid
from repro.blocking.rank import RankBlocking
from repro.dist.grid import ProcessGrid
from repro.dist.mediumgrain import medium_grain_decompose
from repro.kernels import get_kernel
from repro.machine import power8
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError


def rules(diags):
    return sorted({d.rule for d in diags})


def small_tensor(seed=0, shape=(30, 20, 10), nnz=200):
    rng = np.random.default_rng(seed)
    idx = np.stack([rng.integers(0, s, nnz) for s in shape], axis=1)
    idx = np.unique(idx, axis=0)
    return COOTensor(shape, idx, rng.standard_normal(idx.shape[0]))


class TestTilingReport:
    def test_exact_tiling(self):
        assert tiling_report([(0, 5), (5, 10)], 10) == ([], [], [])

    def test_gap(self):
        gaps, overlaps, malformed = tiling_report([(0, 4), (6, 10)], 10)
        assert gaps == [(4, 6)] and not overlaps and not malformed

    def test_overlap(self):
        gaps, overlaps, malformed = tiling_report([(0, 6), (4, 10)], 10)
        assert overlaps == [(4, 6)] and not gaps and not malformed

    def test_trailing_gap(self):
        gaps, _, _ = tiling_report([(0, 7)], 10)
        assert gaps == [(7, 10)]

    def test_leading_gap(self):
        gaps, _, _ = tiling_report([(3, 10)], 10)
        assert gaps == [(0, 3)]

    def test_empty_intervals_ignored(self):
        assert tiling_report([(0, 5), (5, 5), (5, 10)], 10) == ([], [], [])

    def test_reversed_interval_malformed(self):
        _, _, malformed = tiling_report([(0, 10), (8, 3)], 10)
        assert malformed == [(8, 3)]

    def test_out_of_range_malformed(self):
        _, _, malformed = tiling_report([(0, 12)], 10)
        assert malformed == [(0, 12)]

    def test_no_intervals_is_one_gap(self):
        gaps, _, _ = tiling_report([], 10)
        assert gaps == [(0, 10)]

    def test_boundaries_to_intervals(self):
        assert boundaries_to_intervals([0, 3, 7, 10]) == [(0, 3), (3, 7), (7, 10)]


class TestVerifyGrid:
    def test_uniform_grid_clean(self):
        assert verify_grid(BlockGrid((30, 20, 10), (3, 2, 1))) == []

    def test_explicit_boundaries_clean(self):
        g = BlockGrid.from_boundaries((10, 6), [[0, 4, 10], [0, 6]])
        assert verify_grid(g) == []

    def test_boundary_gap_is_pl401(self):
        diags = verify_boundaries([0, 4, 9], 10, "mode 0")
        assert rules(diags) == ["PL401"]

    def test_boundary_overlap_is_pl402(self):
        # Construct raw overlapping intervals through verify_boundaries'
        # internal path: non-monotonic boundaries produce malformed/overlap.
        diags = verify_boundaries([0, 6, 4, 10], 10, "mode 0")
        assert "PL402" in rules(diags)

    def test_dispatch(self):
        assert verify_plan(BlockGrid((30, 20, 10), (3, 2, 1))) == []


class TestVerifyRankBlocking:
    def test_even_strips_clean(self):
        assert verify_rank_blocking(RankBlocking(n_blocks=4), 64) == []

    def test_remainder_strips_clean(self):
        # 100 columns in strips of 16: the last strip is the remainder.
        assert verify_rank_blocking(RankBlocking(block_cols=16), 100) == []

    def test_probe_dispatch_without_rank(self):
        assert verify_plan(RankBlocking(block_cols=16)) == []

    def test_impossible_strip_count_is_pl403(self):
        diags = verify_rank_blocking(RankBlocking(n_blocks=100), 64)
        assert rules(diags) == ["PL403"]

    def test_register_cover_failure_is_pl404(self):
        class BrokenRegisterBlocking(RankBlocking):
            def register_blocks(self, strip_cols: int) -> int:
                return strip_cols // self.register_block  # drops the remainder

        diags = verify_rank_blocking(
            BrokenRegisterBlocking(block_cols=24, register_block=16), 24
        )
        assert "PL404" in rules(diags)

    def test_strips_tiling_failure_is_pl403(self):
        class GappyBlocking(RankBlocking):
            def strips(self, rank: int):
                return [(0, rank // 2)]  # loses the upper half of the rank

        diags = verify_rank_blocking(GappyBlocking(n_blocks=1), 32)
        assert "PL403" in rules(diags)


class TestVerifyProcessGrid:
    def test_3d_grid_clean(self):
        assert verify_process_grid(ProcessGrid((2, 3, 2))) == []

    def test_4d_grid_clean_with_rank(self):
        assert verify_process_grid(ProcessGrid((2, 2, 2), rank_groups=4), 64) == []

    def test_rank_extension_too_many_groups(self):
        diags = verify_rank_extension(10, 4)
        assert rules(diags) == ["PL408"]

    def test_dispatch(self):
        assert verify_plan(ProcessGrid((2, 2, 2), rank_groups=2), rank=32) == []


class TestVerifyDecomposition:
    def test_real_decomposition_clean(self):
        t = small_tensor()
        decomp = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=0)
        assert verify_decomposition(decomp) == []

    def test_dispatch(self):
        t = small_tensor(1)
        decomp = medium_grain_decompose(t, ProcessGrid((2, 1, 2)), seed=1)
        assert verify_plan(decomp, rank=16) == []

    def test_missing_block_is_pl405(self):
        t = small_tensor(2)
        decomp = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=2)
        del decomp.blocks[(0, 0, 0)]
        assert "PL405" in rules(verify_decomposition(decomp))

    def test_misplaced_nonzero_is_pl406(self):
        t = small_tensor(3)
        decomp = medium_grain_decompose(t, ProcessGrid((2, 1, 1)), seed=3)
        # Swap the tensors of the two blocks: nonzeros leave their bounds.
        b0, b1 = decomp.blocks[(0, 0, 0)], decomp.blocks[(1, 0, 0)]
        if b0.tensor.nnz and b1.tensor.nnz:
            b0.tensor, b1.tensor = b1.tensor, b0.tensor
            assert "PL406" in rules(verify_decomposition(decomp))

    def test_corrupted_boundaries_is_pl405(self):
        t = small_tensor(4)
        decomp = medium_grain_decompose(t, ProcessGrid((2, 2, 1)), seed=4)
        mode0 = decomp.boundaries[0].copy()
        mode0[-1] = t.shape[0] - 1  # no longer spans the mode
        decomp.boundaries = (mode0, decomp.boundaries[1], decomp.boundaries[2])
        assert "PL405" in rules(verify_decomposition(decomp))


class TestVerifyCapacity:
    def test_fitting_plan_is_clean(self):
        t = small_tensor(5)
        plan = get_kernel("splatt").prepare(t, 0)
        assert verify_capacity(plan, 16, power8(64)) == []

    def test_oversized_working_set_is_pl409_warning(self):
        t = small_tensor(6)
        plan = get_kernel("splatt").prepare(t, 0)
        tiny = power8(64).scaled(1e-4)
        diags = verify_capacity(plan, 512, tiny)
        assert rules(diags) == ["PL409"]
        assert all(d.severity is Severity.WARNING for d in diags)

    def test_unknown_level_name_raises(self):
        t = small_tensor(7)
        plan = get_kernel("splatt").prepare(t, 0)
        with pytest.raises(ConfigError):
            verify_capacity(plan, 16, power8(64), target_level="L9")

    def test_dispatch_with_machine(self):
        t = small_tensor(8)
        plan = get_kernel("mb").prepare(t, 0, block_counts=(2, 2, 1))
        assert verify_plan(plan, rank=16, machine=power8(64)) == []


class TestVerifyPlanDispatch:
    def test_unknown_object_raises(self):
        with pytest.raises(ConfigError):
            verify_plan(object())

    def test_combined_plan_checks_grid_and_strips(self):
        t = small_tensor(9)
        plan = get_kernel("mb+rankb").prepare(
            t, 0, block_counts=(2, 2, 1), n_rank_blocks=2
        )
        assert verify_plan(plan, rank=32) == []

    @pytest.mark.parametrize("kernel_name", ["mb", "csf-blocked"])
    def test_tree_plan_grid_is_verified(self, kernel_name):
        """Every blocked tree plan carries its grid, and the dispatcher
        checks it: a plan whose grid has a gap is PL401."""
        t = small_tensor(10)
        plan = get_kernel(kernel_name).prepare(t, 0, block_counts=(2, 2, 1))
        assert verify_plan(plan) == []
        b = plan.grid.boundaries
        plan.grid.boundaries = (np.array([0, 15, 29]), *b[1:])
        assert rules(verify_plan(plan)) == ["PL401"]


class TestScanSource:
    def test_valid_literals_clean(self):
        src = (
            "g = BlockGrid((30, 20, 10), (3, 2, 1))\n"
            "rb = RankBlocking(block_cols=16)\n"
            "pg = ProcessGrid((2, 2, 2), rank_groups=2)\n"
        )
        assert scan_source(src, "x.py") == []

    def test_invalid_grid_literal_flagged(self):
        src = "g = BlockGrid.from_boundaries((10,), [[0, 5, 9]])\n"
        diags = scan_source(src, "x.py")
        assert rules(diags) == ["PL401"]
        assert diags[0].line == 1

    def test_invalid_process_grid_flagged(self):
        src = "pg = ProcessGrid((2, 2))\n"
        assert rules(scan_source(src, "x.py")) == ["PL408"]

    def test_non_literal_args_skipped(self):
        src = "n = some_function()\ng = BlockGrid(shape, (n, 2, 1))\n"
        assert scan_source(src, "x.py") == []

    def test_pytest_raises_block_skipped(self):
        src = (
            "with pytest.raises(ConfigError):\n"
            "    BlockGrid((3, 3, 3), (4, 1, 1))\n"
        )
        assert scan_source(src, "x.py") == []

    def test_syntax_error_returns_nothing(self):
        assert scan_source("def broken(:\n", "x.py") == []


class TestRunnerIntegration:
    def test_run_check_plans_flag(self, tmp_path):
        from repro.analysis import run_check

        bad = tmp_path / "bench_bad.py"
        bad.write_text("g = BlockGrid.from_boundaries((10,), [[0, 5, 9]])\n")
        result = run_check([tmp_path], plans=True)
        assert rules(result.diagnostics) == ["PL401"]
        # Without the flag the plan pass does not run.
        assert run_check([tmp_path]).diagnostics == []

    def test_noqa_suppresses_plan_rule(self, tmp_path):
        f = tmp_path / "bench.py"
        f.write_text(
            "g = BlockGrid.from_boundaries((10,), [[0, 5, 9]])"
            "  # repro: noqa[PL401]\n"
        )
        from repro.analysis import run_check

        assert run_check([f], plans=True).diagnostics == []


class TestRuntimeWiring:
    def test_tuner_verifies_before_caching(self):
        from repro.tune.cache import TuningCache
        from repro.tune.tuner import Tuner

        t = small_tensor(12)
        cache = TuningCache()
        tuner = Tuner(t, 0, power8(64), cache=cache)
        result = tuner.get_or_tune(16, strategy="heuristic")
        assert result.cost > 0
        hit = tuner.get_or_tune(16, strategy="heuristic")
        assert hit.from_cache

    def test_distributed_rejects_corrupted_decomposition(self):
        from repro.dist.mttkrp import distributed_mttkrp
        from repro.util.errors import DistributionError

        t = small_tensor(13)
        rng = np.random.default_rng(13)
        factors = [rng.standard_normal((s, 8)) for s in t.shape]
        decomp = medium_grain_decompose(t, ProcessGrid((2, 1, 1)), seed=13)
        mode0 = decomp.boundaries[0].copy()
        mode0[-1] = t.shape[0] + 5
        decomp.boundaries = (mode0, decomp.boundaries[1], decomp.boundaries[2])
        with pytest.raises(DistributionError):
            distributed_mttkrp(decomp, factors, 0, power8(64))
