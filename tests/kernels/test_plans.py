"""Tests for the Plan/Kernel API: reuse, validation, block statistics."""

import numpy as np
import pytest

from repro.kernels import get_kernel, reference_mttkrp
from repro.kernels.base import check_factors
from repro.util import ConfigError, ShapeError


class TestPlanReuse:
    def test_plan_reused_across_factor_sets(self, small_tensor):
        """Prepare once, execute many times — the CP-ALS usage pattern."""
        kernel = get_kernel("splatt")
        plan = kernel.prepare(small_tensor, 0)
        rng = np.random.default_rng(50)
        for _ in range(3):
            factors = [rng.standard_normal((n, 6)) for n in small_tensor.shape]
            got = kernel.execute(plan, factors)
            ref = reference_mttkrp(small_tensor, factors, 0)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_out_buffer_reused_and_zeroed(self, small_tensor, factors_for):
        kernel = get_kernel("splatt")
        plan = kernel.prepare(small_tensor, 0)
        factors = factors_for(small_tensor, 5)
        buf = np.full((small_tensor.shape[0], 5), 123.0)
        got = kernel.execute(plan, factors, out=buf)
        assert got is buf
        ref = reference_mttkrp(small_tensor, factors, 0)
        np.testing.assert_allclose(buf, ref, rtol=1e-10, atol=1e-12)

    def test_wrong_out_shape_rejected(self, small_tensor, factors_for):
        kernel = get_kernel("splatt")
        plan = kernel.prepare(small_tensor, 0)
        factors = factors_for(small_tensor, 5)
        with pytest.raises(ShapeError):
            kernel.execute(plan, factors, out=np.zeros((3, 5)))

    def test_different_ranks_same_plan(self, small_tensor):
        kernel = get_kernel("splatt")
        plan = kernel.prepare(small_tensor, 0)
        rng = np.random.default_rng(51)
        for rank in (1, 4, 17):
            factors = [rng.standard_normal((n, rank)) for n in small_tensor.shape]
            got = kernel.execute(plan, factors)
            assert got.shape == (small_tensor.shape[0], rank)


class TestFactorValidation:
    def test_wrong_row_count(self, small_tensor, rng):
        factors = [rng.random((n + 1, 4)) for n in small_tensor.shape]
        with pytest.raises(ShapeError):
            get_kernel("splatt").mttkrp(small_tensor, factors, 0)

    def test_rank_disagreement(self, small_tensor, rng):
        n0, n1, n2 = small_tensor.shape
        factors = [rng.random((n0, 4)), rng.random((n1, 4)), rng.random((n2, 5))]
        with pytest.raises(ShapeError):
            get_kernel("splatt").mttkrp(small_tensor, factors, 0)

    def test_output_factor_may_be_none(self, small_tensor, rng):
        n0, n1, n2 = small_tensor.shape
        factors = [None, rng.random((n1, 4)), rng.random((n2, 4))]
        out = get_kernel("splatt").mttkrp(small_tensor, factors, 0)
        assert out.shape == (n0, 4)

    def test_check_factors_returns_rank(self, rng):
        factors, rank = check_factors(
            [None, rng.random((4, 7)), rng.random((5, 7))], (3, 4, 5), 0
        )
        assert rank == 7
        assert factors[0] is None


class TestBlockStats:
    def test_unblocked_single_phase(self, medium_tensor):
        plan = get_kernel("splatt").prepare(medium_tensor, 0)
        stats = plan.block_stats()
        assert len(stats) == 1
        s = stats[0]
        assert s.nnz == medium_tensor.nnz
        assert s.n_fibers <= s.nnz
        d = medium_tensor.distinct_per_mode()
        assert s.distinct_out == d[0]
        assert s.distinct_inner == d[1]
        assert s.distinct_fiber == d[2]

    def test_blocked_conserves_nnz(self, medium_tensor):
        plan = get_kernel("mb").prepare(medium_tensor, 0, block_counts=(2, 5, 4))
        stats = plan.block_stats()
        assert sum(b.nnz for b in stats) == medium_tensor.nnz
        assert len(stats) <= 2 * 5 * 4

    def test_blocked_distincts_bounded_by_block_extent(self, medium_tensor):
        plan = get_kernel("mb").prepare(medium_tensor, 0, block_counts=(1, 8, 1))
        for b, block in zip(plan.block_stats(), plan.blocks):
            extent = block.bounds[plan.inner_mode]
            assert b.distinct_inner <= extent[1] - extent[0]

    def test_plan_totals(self, medium_tensor):
        plan = get_kernel("mb").prepare(medium_tensor, 0, block_counts=(2, 2, 2))
        assert plan.nnz == medium_tensor.nnz
        assert plan.n_fibers >= get_kernel("splatt").prepare(
            medium_tensor, 0
        ).n_fibers

    def test_describe(self, small_tensor):
        plan = get_kernel("splatt").prepare(small_tensor, 0)
        text = plan.describe()
        assert "splatt" in text and "nnz" in text

    def test_rankb_plan_carries_config(self, small_tensor):
        plan = get_kernel("rankb").prepare(small_tensor, 0, n_rank_blocks=4)
        assert plan.rank_blocking.n_blocks == 4
        assert plan.block_stats()[0].nnz == small_tensor.nnz


class TestKernelConfigErrors:
    def test_mb_requires_grid(self, small_tensor):
        with pytest.raises(ConfigError):
            get_kernel("mb").prepare(small_tensor, 0)

    def test_mb_rejects_both_specs(self, small_tensor):
        from repro.blocking import BlockGrid

        grid = BlockGrid(small_tensor.shape, (2, 2, 2))
        with pytest.raises(ConfigError):
            get_kernel("mb").prepare(
                small_tensor, 0, grid=grid, block_counts=(2, 2, 2)
            )

    def test_rankb_requires_spec(self, small_tensor):
        with pytest.raises(ConfigError):
            get_kernel("rankb").prepare(small_tensor, 0)

    def test_rankb_rejects_double_spec(self, small_tensor):
        with pytest.raises(ConfigError):
            get_kernel("rankb").prepare(
                small_tensor, 0, n_rank_blocks=2, block_cols=16
            )

    @pytest.mark.parametrize(
        "kernel_name,params",
        [("csf", {}), ("csf-blocked", {"block_counts": (2, 2, 2)})],
    )
    def test_csf_mode_order_must_lead_with_output_mode(
        self, small_tensor, kernel_name, params
    ):
        with pytest.raises(ConfigError, match="must start with the output mode"):
            get_kernel(kernel_name).prepare(
                small_tensor, 0, mode_order=(1, 0, 2), **params
            )

    def test_unknown_kernel(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            get_kernel("quantum")
