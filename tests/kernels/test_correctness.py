"""Numerical correctness of every MTTKRP kernel vs. the dense reference."""

import numpy as np
import pytest

from repro.kernels import get_kernel, reference_mttkrp
from repro.tensor import (
    COOTensor,
    clustered_tensor,
    poisson_tensor,
    power_law_tensor,
    uniform_random_tensor,
)

KERNEL_PARAMS = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "mb": {"block_counts": (2, 3, 2)},
    "rankb": {"n_rank_blocks": 3},
    "mb+rankb": {"block_counts": (2, 2, 3), "n_rank_blocks": 2},
}


@pytest.fixture(scope="module")
def problem():
    t = poisson_tensor((15, 22, 18), 1200, seed=31)
    rng = np.random.default_rng(32)
    factors = [rng.standard_normal((n, 13)) for n in t.shape]
    refs = [reference_mttkrp(t, factors, m) for m in range(3)]
    return t, factors, refs


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_kernel_matches_reference(problem, kernel_name, mode):
    t, factors, refs = problem
    got = get_kernel(kernel_name).mttkrp(
        t, factors, mode, **KERNEL_PARAMS[kernel_name]
    )
    np.testing.assert_allclose(got, refs[mode], rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "gen",
    [
        lambda: uniform_random_tensor((12, 30, 9), 800, seed=33),
        lambda: clustered_tensor((25, 25, 25), 900, seed=34),
        lambda: power_law_tensor((20, 30, 15), 700, seed=35),
    ],
    ids=["uniform", "clustered", "power_law"],
)
@pytest.mark.parametrize("kernel_name", sorted(KERNEL_PARAMS))
def test_kernels_across_structures(gen, kernel_name):
    t = gen()
    rng = np.random.default_rng(36)
    factors = [rng.standard_normal((n, 8)) for n in t.shape]
    ref = reference_mttkrp(t, factors, 0)
    got = get_kernel(kernel_name).mttkrp(t, factors, 0, **KERNEL_PARAMS[kernel_name])
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


#: (preset, params, equivalent unblocked preset): a one-block grid or a
#: single rank strip is the unblocked kernel, bit for bit.
PRESET_IDENTITIES = [
    ("mb", {"block_counts": (1, 1, 1)}, "splatt", 3),
    ("rankb", {"n_rank_blocks": 1}, "splatt", 3),
    ("csf-blocked", {"block_counts": (1, 1, 1)}, "csf", 3),
    ("csf-blocked", {"block_counts": (1, 1, 1, 1)}, "csf", 4),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize(
    "preset,params,unblocked,order",
    PRESET_IDENTITIES,
    ids=["mb-1x1x1", "rankb-1strip", "csf-blocked-1x1x1", "csf-blocked-1x1x1x1"],
)
def test_single_block_single_strip_presets_are_bitwise_unblocked(
    preset, params, unblocked, order, dtype
):
    shape = (15, 22, 18, 9)[:order]
    t = uniform_random_tensor(shape, 900, seed=39)
    rng = np.random.default_rng(40)
    factors = [rng.standard_normal((n, 7)).astype(dtype) for n in shape]
    for mode in range(order):
        got = get_kernel(preset).mttkrp(t, factors, mode, **params)
        want = get_kernel(unblocked).mttkrp(t, factors, mode)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


class TestEdgeCases:
    def test_empty_tensor(self):
        t = COOTensor((5, 6, 7), np.empty((0, 3)), np.empty(0))
        rng = np.random.default_rng(0)
        factors = [rng.random((n, 4)) for n in t.shape]
        for name, params in KERNEL_PARAMS.items():
            out = get_kernel(name).mttkrp(t, factors, 0, **params)
            assert out.shape == (5, 4)
            assert np.all(out == 0.0)

    def test_single_nonzero(self):
        t = COOTensor((3, 4, 5), np.array([[1, 2, 3]]), np.array([2.0]))
        rng = np.random.default_rng(1)
        factors = [rng.random((n, 6)) for n in t.shape]
        expected = np.zeros((3, 6))
        expected[1] = 2.0 * factors[1][2] * factors[2][3]
        for name, params in KERNEL_PARAMS.items():
            got = get_kernel(name).mttkrp(t, factors, 0, **params)
            np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_rank_1(self, small_tensor):
        rng = np.random.default_rng(2)
        factors = [rng.random((n, 1)) for n in small_tensor.shape]
        ref = reference_mttkrp(small_tensor, factors, 1)
        for name, params in KERNEL_PARAMS.items():
            params = {k: v for k, v in params.items() if k != "n_rank_blocks"}
            if name in ("rankb", "mb+rankb"):
                params["n_rank_blocks"] = 1
            got = get_kernel(name).mttkrp(small_tensor, factors, 1, **params)
            np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_mode_minus_one(self, small_tensor, factors_for):
        factors = factors_for(small_tensor, 5)
        ref = reference_mttkrp(small_tensor, factors, 2)
        got = get_kernel("splatt").mttkrp(small_tensor, factors, -1)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


class TestChunking:
    """Tiny scratch budgets force the chunked paths."""

    @pytest.mark.parametrize("scratch", [8, 64, 1024])
    def test_splatt_chunked(self, small_tensor, factors_for, scratch):
        from repro.kernels.splatt_mttkrp import SplattKernel

        factors = factors_for(small_tensor, 7)
        ref = reference_mttkrp(small_tensor, factors, 0)
        got = SplattKernel(scratch_elems=scratch).mttkrp(small_tensor, factors, 0)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_coo_chunked(self, small_tensor, factors_for):
        from repro.kernels.coo_mttkrp import COOKernel

        factors = factors_for(small_tensor, 7)
        ref = reference_mttkrp(small_tensor, factors, 0)
        got = COOKernel(scratch_elems=16).mttkrp(small_tensor, factors, 0)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_csf_chunked(self, small_tensor, factors_for):
        from repro.kernels.csf_mttkrp import CSFKernel

        factors = factors_for(small_tensor, 7)
        ref = reference_mttkrp(small_tensor, factors, 0)
        got = CSFKernel(scratch_elems=16).mttkrp(small_tensor, factors, 0)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)


class TestHigherOrder:
    @pytest.mark.parametrize("mode", [0, 1, 2, 3])
    def test_csf_order_4(self, mode):
        t = uniform_random_tensor((7, 8, 9, 10), 500, seed=37)
        rng = np.random.default_rng(38)
        factors = [rng.standard_normal((n, 5)) for n in t.shape]
        got = get_kernel("csf").mttkrp(t, factors, mode)
        ref = reference_mttkrp(t, factors, mode)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)

    def test_csf_order_5(self):
        t = uniform_random_tensor((4, 5, 6, 7, 8), 400, seed=39)
        rng = np.random.default_rng(40)
        factors = [rng.standard_normal((n, 3)) for n in t.shape]
        got = get_kernel("csf").mttkrp(t, factors, 2)
        ref = reference_mttkrp(t, factors, 2)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-12)
