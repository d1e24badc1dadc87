"""End-to-end float32 CPD regression tests.

The kernels honor the float32 precision contract through
``Kernel.execute``, which allocates every output in the factor dtype;
these tests pin the *driver* layers — cp_als, init_factors,
KruskalTensor — which used to
allocate float64 weights/grams and silently upcast (or trip the kernels'
mixed-precision ConfigError) on float32 input.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpd import KruskalTensor, cp_als, init_factors
from repro.tensor import poisson_tensor
from repro.tensor.coo import COOTensor


def as_float32(tensor: COOTensor) -> COOTensor:
    return COOTensor(tensor.shape, tensor.indices, tensor.values.astype(np.float32))


@pytest.fixture(scope="module")
def t32() -> COOTensor:
    return as_float32(poisson_tensor((20, 26, 22), 1600, seed=9))


def assert_model_float32(model: KruskalTensor) -> None:
    assert model.weights.dtype == np.float32
    for m, f in enumerate(model.factors):
        assert f.dtype == np.float32, f"factor {m} upcast to {f.dtype}"


class TestTensorLayer:
    def test_coo_preserves_float32(self, t32):
        assert t32.values.dtype == np.float32
        assert t32.deduplicate().values.dtype == np.float32

    def test_compressed_formats_preserve_float32(self, t32):
        from repro.tensor import CSFTensor
        from repro.tensor.csf import splatt_order

        assert CSFTensor.from_coo(t32, splatt_order(0)).vals.dtype == np.float32
        assert CSFTensor.from_coo(t32).vals.dtype == np.float32

    def test_float16_still_coerced_to_float64(self):
        t = poisson_tensor((6, 7, 8), 50, seed=1)
        t16 = COOTensor(t.shape, t.indices, t.values.astype(np.float16))
        assert t16.values.dtype == np.float64


class TestInitFactors:
    @pytest.mark.parametrize("method", ["random", "randn", "hosvd"])
    def test_init_matches_tensor_dtype(self, t32, method):
        factors = init_factors(t32, rank=6, method=method, seed=0)
        assert all(f.dtype == np.float32 for f in factors)

    def test_float64_unchanged(self):
        t = poisson_tensor((10, 12, 11), 300, seed=2)
        factors = init_factors(t, rank=4, seed=0)
        assert all(f.dtype == np.float64 for f in factors)


class TestKruskalTensor:
    def test_all_float32_stays_float32(self):
        rng = np.random.default_rng(0)
        factors = [rng.random((n, 3), dtype=np.float32) for n in (5, 6, 7)]
        model = KruskalTensor(np.ones(3, dtype=np.float32), factors)
        assert_model_float32(model)
        assert_model_float32(model.normalize())
        assert np.isfinite(model.norm())

    def test_mixed_inputs_promote_to_float64(self):
        rng = np.random.default_rng(0)
        factors = [rng.random((n, 3), dtype=np.float32) for n in (5, 6, 7)]
        model = KruskalTensor(np.ones(3), factors)  # float64 weights
        assert model.weights.dtype == np.float64
        assert all(f.dtype == np.float64 for f in model.factors)


class TestFloat32EndToEnd:
    def test_cp_als_rank16_converges_float32(self, t32):
        # The ISSUE acceptance case: no upcast, no mixed-precision
        # ConfigError, and the fit actually improves.
        res = cp_als(t32, 16, n_iters=10, seed=0)
        assert_model_float32(res.model)
        assert np.isfinite(res.final_fit)
        assert res.final_fit > res.fits[0] - 1e-3
        assert res.final_fit > 0.0

    @pytest.mark.parametrize(
        "kernel,params",
        [
            ("coo", {}),
            ("mb", {"block_counts": (2, 2, 2)}),
            ("rankb", {"n_rank_blocks": 2}),
        ],
    )
    def test_cp_als_float32_other_kernels(self, t32, kernel, params):
        res = cp_als(t32, 6, n_iters=4, seed=0, kernel=kernel, kernel_params=params)
        assert_model_float32(res.model)
        assert np.isfinite(res.final_fit)

    def test_cp_als_float32_matches_float64_fit(self, t32):
        t64 = COOTensor(t32.shape, t32.indices, t32.values.astype(np.float64))
        fit32 = cp_als(t32, 6, n_iters=6, seed=0).final_fit
        fit64 = cp_als(t64, 6, n_iters=6, seed=0).final_fit
        assert fit32 == pytest.approx(fit64, abs=5e-3)

    @pytest.mark.parallel_exec
    def test_cp_als_float32_threaded(self, t32):
        res = cp_als(t32, 6, n_iters=3, seed=0, n_threads=2)
        assert_model_float32(res.model)
        serial = cp_als(t32, 6, n_iters=3, seed=0)
        assert res.final_fit == pytest.approx(serial.final_fit, abs=1e-4)
