"""Boundary validation shared by the two ALS drivers (cp_als,
distributed_cp_als): malformed initial factors and bad
iteration settings must raise ConfigError up front, naming the offending
mode — not fail with an opaque broadcast or index error deep inside the
first MTTKRP."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cpd import check_init_factors, cp_als
from repro.dist import ProcessGrid, distributed_cp_als
from repro.machine import power8_socket
from repro.tensor import COOTensor, poisson_tensor
from repro.util.errors import ConfigError, NonFiniteError


def _dist_als(tensor, rank, **kwargs):
    return distributed_cp_als(
        tensor, rank, ProcessGrid((2, 1, 1)), power8_socket(), **kwargs
    )


DRIVERS = {"cp_als": cp_als, "dist": _dist_als}


@pytest.fixture(scope="module")
def tensor():
    return poisson_tensor((12, 15, 10), 600, seed=21)


def _good_init(shape, rank, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((s, rank)) for s in shape]


class TestCheckInitFactors:
    def test_accepts_conforming_factors(self, tensor):
        check_init_factors(_good_init(tensor.shape, 5), tensor.shape, 5)

    def test_wrong_count(self, tensor):
        init = _good_init(tensor.shape, 5)[:2]
        with pytest.raises(ConfigError, match="one initial factor per mode"):
            check_init_factors(init, tensor.shape, 5)

    @pytest.mark.parametrize("bad_mode", [0, 1, 2])
    def test_wrong_rows_names_the_mode(self, tensor, bad_mode):
        init = _good_init(tensor.shape, 5)
        init[bad_mode] = init[bad_mode][:-1]
        with pytest.raises(ConfigError, match=f"mode {bad_mode}"):
            check_init_factors(init, tensor.shape, 5)

    def test_wrong_rank_names_expected_shape(self, tensor):
        init = _good_init(tensor.shape, 5)
        init[1] = np.ascontiguousarray(init[1][:, :3])
        with pytest.raises(ConfigError, match=r"\(15, 5\), got \(15, 3\)"):
            check_init_factors(init, tensor.shape, 5)

    def test_one_dimensional_factor(self, tensor):
        init = _good_init(tensor.shape, 5)
        init[2] = init[2][:, 0]
        with pytest.raises(ConfigError, match="mode 2"):
            check_init_factors(init, tensor.shape, 5)


class TestDriversValidateInit:
    def test_cp_als_rejects_bad_shape(self, tensor):
        init = _good_init(tensor.shape, 4)
        init[1] = np.zeros((3, 4))
        with pytest.raises(ConfigError, match="mode 1"):
            cp_als(tensor, 4, n_iters=2, init=init)

    def test_cp_als_accepts_good_explicit_init(self, tensor):
        init = _good_init(tensor.shape, 4)
        res = cp_als(tensor, 4, n_iters=2, init=init)
        assert res.n_iters == 2
        # The caller's arrays must not be mutated by the run.
        np.testing.assert_array_equal(init[0], _good_init(tensor.shape, 4)[0])

    def test_drivers_agree_from_shared_init(self, tensor):
        init = _good_init(tensor.shape, 4)
        ref = cp_als(tensor, 4, n_iters=3, init=[f.copy() for f in init])
        res = _dist_als(tensor, 4, n_iters=3, init=[f.copy() for f in init])
        np.testing.assert_allclose(res.fits, ref.fits, rtol=1e-8)


@pytest.mark.parametrize("driver", sorted(DRIVERS))
class TestSharedStartValidation:
    """Every driver validates through the same ALS start step."""

    def test_wrong_rank_in_one_mode(self, tensor, driver):
        init = _good_init(tensor.shape, 4)
        init[2] = np.zeros((tensor.shape[2], 5))
        with pytest.raises(ConfigError, match="mode 2"):
            DRIVERS[driver](tensor, 4, n_iters=2, init=init)

    def test_too_few_factors(self, tensor, driver):
        init = _good_init(tensor.shape, 4)[:2]
        with pytest.raises(ConfigError, match="one initial factor per mode"):
            DRIVERS[driver](tensor, 4, n_iters=2, init=init)

    def test_non_finite_init_names_mode_and_entry(self, tensor, driver):
        init = _good_init(tensor.shape, 4)
        init[1][3, 2] = np.inf
        with pytest.raises(ConfigError, match=r"mode 1 .* at \(3, 2\)"):
            DRIVERS[driver](tensor, 4, n_iters=2, init=init)

    def test_nan_tensor_fails_at_the_boundary_not_in_pinv(self, tensor, driver):
        # A NaN value used to pass construction and end the run in
        # pinv's "SVD did not converge" LinAlgError.
        values = tensor.values.copy()
        values[5] = np.nan
        with pytest.raises(NonFiniteError, match="nonzero 5"):
            DRIVERS[driver](
                COOTensor(tensor.shape, tensor.indices, values), 4, n_iters=2
            )

    def test_negative_tol(self, tensor, driver):
        with pytest.raises(ConfigError, match="tol"):
            DRIVERS[driver](tensor, 4, n_iters=2, tol=-1.0)

    def test_zero_iterations(self, tensor, driver):
        with pytest.raises(ConfigError, match="n_iters"):
            DRIVERS[driver](tensor, 4, n_iters=0)
