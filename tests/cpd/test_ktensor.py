"""Tests for Kruskal tensors."""

import numpy as np
import pytest

from repro.cpd import KruskalTensor
from repro.tensor import COOTensor, uniform_random_tensor
from repro.util import ShapeError


def random_kt(shape=(6, 7, 8), rank=3, seed=0):
    rng = np.random.default_rng(seed)
    return KruskalTensor(
        rng.random(rank) + 0.5, [rng.random((n, rank)) for n in shape]
    )


class TestConstruction:
    def test_properties(self):
        kt = random_kt()
        assert kt.rank == 3
        assert kt.shape == (6, 7, 8)
        assert kt.order == 3

    def test_rank_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ShapeError):
            KruskalTensor(
                np.ones(3), [rng.random((5, 3)), rng.random((6, 4))]
            )

    def test_needs_two_modes(self):
        with pytest.raises(ShapeError):
            KruskalTensor(np.ones(2), [np.ones((4, 2))])


class TestNorm:
    def test_matches_dense(self):
        kt = random_kt()
        assert kt.norm() == pytest.approx(np.linalg.norm(kt.full().ravel()))

    def test_rank_one_closed_form(self):
        a, b = np.array([[3.0], [4.0]]), np.array([[1.0], [0.0], [0.0]])
        kt = KruskalTensor(np.array([2.0]), [a, b])
        assert kt.norm() == pytest.approx(2.0 * 5.0 * 1.0)


class TestInnerProduct:
    def test_matches_dense(self):
        kt = random_kt()
        x = uniform_random_tensor(kt.shape, 60, seed=2)
        expected = float(np.sum(x.to_dense() * kt.full()))
        assert kt.innerprod(x) == pytest.approx(expected)

    def test_shape_checked(self):
        kt = random_kt()
        x = uniform_random_tensor((5, 5, 5), 10, seed=3)
        with pytest.raises(ShapeError):
            kt.innerprod(x)

    def test_empty_tensor(self):
        kt = random_kt()
        x = COOTensor(kt.shape, np.empty((0, 3)), np.empty(0))
        assert kt.innerprod(x) == 0.0


def _unchunked_innerprod(kt, x):
    """The inner product with the whole ``(nnz x R)`` row matrix at once."""
    rows = np.ones((x.nnz, kt.rank), dtype=kt.weights.dtype)
    for m, f in enumerate(kt.factors):
        rows *= f[x.indices[:, m]]
    return float(x.values @ (rows @ kt.weights))


class TestChunkedInnerProduct:
    """``innerprod`` builds the per-nonzero rows in cache-sized chunks."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_chunk_is_the_unchunked_formula_bitwise(self, dtype):
        kt = random_kt((30, 40, 50), rank=5, seed=4)
        kt = KruskalTensor(
            kt.weights.astype(dtype), [f.astype(dtype) for f in kt.factors]
        )
        x = uniform_random_tensor(kt.shape, 3000, seed=5)
        x = COOTensor(x.shape, x.indices, x.values.astype(dtype))
        assert kt.innerprod(x) == _unchunked_innerprod(kt, x)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rank", [3, 7, 32])
    def test_many_chunks_match_the_unchunked_formula(self, dtype, rank):
        # The products are exact per element; only BLAS's per-row
        # summation order inside ``rows @ weights`` may depend on where a
        # chunk starts, so agreement is to a few ulps of the dtype.
        kt = random_kt((60, 70, 80), rank=rank, seed=6)
        kt = KruskalTensor(
            kt.weights.astype(dtype), [f.astype(dtype) for f in kt.factors]
        )
        x = uniform_random_tensor(kt.shape, 3 * (1 << 16) // rank + 11, seed=7)
        x = COOTensor(x.shape, x.indices, x.values.astype(dtype))
        rel = 1e-5 if dtype == np.float32 else 1e-12
        assert kt.innerprod(x) == pytest.approx(_unchunked_innerprod(kt, x), rel=rel)


class TestFit:
    def test_perfect_model(self):
        kt = random_kt()
        x = COOTensor.from_dense(kt.full())
        assert kt.fit(x) == pytest.approx(1.0, abs=1e-8)

    def test_zero_model_fit_zero(self):
        kt = KruskalTensor(np.zeros(2), [np.zeros((4, 2)), np.zeros((5, 2))])
        x = uniform_random_tensor((4, 5), 8, seed=4)
        assert kt.fit(x) == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_residual(self):
        kt = random_kt()
        x = uniform_random_tensor(kt.shape, 80, seed=5)
        dense_fit = 1.0 - np.linalg.norm(
            (x.to_dense() - kt.full()).ravel()
        ) / np.linalg.norm(x.values)
        assert kt.fit(x) == pytest.approx(dense_fit, abs=1e-8)


class TestNormalize:
    def test_unit_columns_and_same_tensor(self):
        kt = random_kt()
        nt = kt.normalize()
        for f in nt.factors:
            np.testing.assert_allclose(np.linalg.norm(f, axis=0), 1.0)
        np.testing.assert_allclose(nt.full(), kt.full(), rtol=1e-10)

    def test_zero_column_safe(self):
        f0 = np.zeros((3, 2))
        f1 = np.ones((4, 2))
        kt = KruskalTensor(np.ones(2), [f0, f1])
        nt = kt.normalize()  # must not divide by zero
        assert np.all(np.isfinite(nt.weights))
