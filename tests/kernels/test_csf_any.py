"""Tests for the any-mode single-CSF MTTKRP kernel."""

import numpy as np
import pytest

from repro.kernels import get_kernel, reference_mttkrp
from repro.kernels.csf_any import CSFAnyKernel
from repro.tensor import poisson_tensor, uniform_random_tensor


@pytest.fixture(scope="module")
def problem3():
    t = poisson_tensor((14, 22, 18), 1500, seed=101)
    rng = np.random.default_rng(102)
    factors = [rng.standard_normal((n, 9)) for n in t.shape]
    return t, factors


class TestCorrectness3Mode:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("mode_order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_every_mode_at_every_level(self, problem3, mode, mode_order):
        """The output mode may sit at the root, middle, or leaf level of
        the tree — all must agree with the dense reference."""
        t, factors = problem3
        got = get_kernel("csf-any").mttkrp(t, factors, mode, mode_order=mode_order)
        ref = reference_mttkrp(t, factors, mode)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_root_placement_matches_root_kernel(self, problem3):
        t, factors = problem3
        any_out = get_kernel("csf-any").mttkrp(
            t, factors, 0, mode_order=(0, 2, 1)
        )
        root_out = get_kernel("csf").mttkrp(t, factors, 0, mode_order=(0, 2, 1))
        np.testing.assert_allclose(any_out, root_out, rtol=1e-12)


class TestCorrectnessHigherOrder:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_order_4_all_levels(self, mode):
        t = uniform_random_tensor((7, 8, 9, 10), 600, seed=103)
        rng = np.random.default_rng(104)
        factors = [rng.standard_normal((n, 6)) for n in t.shape]
        # Fixed ordering puts each mode at a different level.
        got = get_kernel("csf-any").mttkrp(t, factors, mode, mode_order=(3, 1, 0, 2))
        ref = reference_mttkrp(t, factors, mode)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_order_5_middle_level(self):
        t = uniform_random_tensor((5, 6, 7, 8, 6), 400, seed=105)
        rng = np.random.default_rng(106)
        factors = [rng.standard_normal((n, 4)) for n in t.shape]
        got = get_kernel("csf-any").mttkrp(t, factors, 2, mode_order=(0, 1, 2, 3, 4))
        ref = reference_mttkrp(t, factors, 2)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


class TestOneTreeAllModes:
    def test_shared_tree_serves_all_modes(self, problem3):
        """The memory story: one prepared tree, re-targeted per mode at
        zero cost, matches the reference on every mode."""
        t, factors = problem3
        kernel = get_kernel("csf-any")
        base = kernel.prepare(t, 0, mode_order=(1, 0, 2))
        for mode in range(3):
            plan = CSFAnyKernel.plan_for_mode(base, mode)
            assert plan.csf is base.csf  # no recompression
            got = kernel.execute(plan, factors)
            ref = reference_mttkrp(t, factors, mode)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_storage_saving(self, problem3):
        """One tree vs SPLATT's three copies (Section III-C footprints)."""
        from repro.tensor import CSFTensor
        from repro.tensor.stats import splatt_footprint

        t, _ = problem3
        one_tree = CSFTensor.from_coo(t).memory_bytes()
        three_copies = sum(splatt_footprint(t, m)[1] for m in range(3))
        assert one_tree < three_copies / 2

    def test_default_mode_order_shortest_first(self, problem3):
        t, _ = problem3
        plan = get_kernel("csf-any").prepare(t, 2)
        assert plan.csf.mode_order == tuple(
            sorted(range(3), key=lambda m: t.shape[m])
        )


class TestEdgeCases:
    def test_empty(self):
        from repro.tensor import COOTensor

        t = COOTensor((4, 5, 6), np.empty((0, 3)), np.empty(0))
        rng = np.random.default_rng(0)
        factors = [rng.random((n, 3)) for n in t.shape]
        out = get_kernel("csf-any").mttkrp(t, factors, 1)
        assert np.all(out == 0.0)

    def test_repeated_coordinates_at_target_level(self):
        """Multiple subtrees contribute to the same output row — the
        scatter-add path."""
        from repro.tensor import COOTensor

        idx = np.array([[0, 2, 1], [1, 2, 1], [2, 2, 1], [0, 1, 1]])
        t = COOTensor((3, 3, 3), idx, np.array([1.0, 2.0, 3.0, 4.0]))
        rng = np.random.default_rng(1)
        factors = [rng.random((3, 2)) for _ in range(3)]
        got = get_kernel("csf-any").mttkrp(t, factors, 1, mode_order=(0, 1, 2))
        ref = reference_mttkrp(t, factors, 1)
        np.testing.assert_allclose(got, ref, rtol=1e-10)
