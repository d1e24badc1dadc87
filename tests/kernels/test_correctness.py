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


def _skewed_tensor() -> COOTensor:
    """Mode 0 has a run of empty rows (0-3) before a row heavier than the
    8/64/1024-element budgets allow, plus more empty rows; modes 1 and 2
    each have one dominant row."""
    rng = np.random.default_rng(44)
    heavy = np.column_stack(
        [np.full(600, 4), rng.integers(0, 40, 600), rng.integers(0, 30, 600)]
    )
    light = np.column_stack(
        [rng.choice([5, 6, 8], 60), rng.integers(0, 40, 60), rng.integers(0, 30, 60)]
    )
    idx = np.concatenate([heavy, light])
    idx[::7, 1] = 39
    idx[::5, 2] = 29
    t = COOTensor((10, 40, 30), idx, rng.random(idx.shape[0]))
    return t.deduplicate()


def _assert_budget_independent(make_kernel, params, budgets, tensors):
    """``make_kernel(budget)`` gives the unbounded-budget output bitwise,
    at every budget, mode and dtype."""
    for base in tensors:
        for dtype in (np.float32, np.float64):
            t = COOTensor(base.shape, base.indices, base.values.astype(dtype))
            rng = np.random.default_rng(7)
            factors = [rng.random((n, 7)).astype(dtype) for n in t.shape]
            for mode in range(t.order):
                want = make_kernel(1 << 30).mttkrp(t, factors, mode, **params)
                np.testing.assert_allclose(
                    want,
                    reference_mttkrp(t, factors, mode),
                    rtol=1e-4 if dtype == np.float32 else 1e-10,
                    atol=1e-5 if dtype == np.float32 else 1e-12,
                )
                for budget in budgets:
                    got = make_kernel(budget).mttkrp(t, factors, mode, **params)
                    np.testing.assert_array_equal(got, want)


CHUNK_BUDGETS = [8, 64, 1024, 1 << 16]


class TestChunking:
    """Tiny scratch budgets force the chunked paths.  Chunks end on output
    row (or fiber) boundaries, so the output is the same bits at any
    budget."""

    @pytest.mark.parametrize("scratch", CHUNK_BUDGETS)
    def test_splatt_chunked(self, small_tensor, scratch):
        from repro.kernels.csf_mttkrp import CSFKernel

        presets = {
            "splatt": ({}, {}),
            "mb": ({"grid": True}, {"block_counts": (2, 2, 2)}),
            "rankb": ({"strips": True}, {"n_rank_blocks": 2}),
            "mb+rankb": (
                {"grid": True, "strips": True},
                {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
            ),
        }
        tensors = [small_tensor, _skewed_tensor()]
        for name, (flags, params) in presets.items():
            _assert_budget_independent(
                lambda budget: CSFKernel(name, scratch_elems=budget, **flags),
                params,
                [scratch],
                tensors,
            )

    @pytest.mark.parametrize("scratch", CHUNK_BUDGETS)
    def test_csf_chunked(self, small_tensor, scratch):
        """The N-mode presets chunk whole root rows too: every internal
        level of a chunk is a contiguous node range."""
        from repro.kernels.csf_mttkrp import CSFKernel

        tensors = [
            small_tensor,
            _skewed_tensor(),
            uniform_random_tensor((7, 8, 9, 10), 400, seed=45),
            uniform_random_tensor((4, 5, 6, 3, 5), 300, seed=46),
        ]
        for t in tensors:
            presets = {
                "csf": ({}, {}),
                "csf-blocked": (
                    {"grid": True},
                    {"block_counts": (2,) * t.order, "n_rank_blocks": 2},
                ),
            }
            for name, (flags, params) in presets.items():
                _assert_budget_independent(
                    lambda budget: CSFKernel(
                        name, any_order=True, scratch_elems=budget, **flags
                    ),
                    params,
                    [scratch],
                    [t],
                )

    def test_coo_chunked(self, small_tensor):
        from repro.kernels.coo_mttkrp import COOKernel

        _assert_budget_independent(
            lambda budget: COOKernel(scratch_elems=budget),
            {},
            CHUNK_BUDGETS,
            [small_tensor, _skewed_tensor()],
        )


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
