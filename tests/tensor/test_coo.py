"""Tests for the COO tensor format."""

import numpy as np
import pytest

from repro.tensor import COOTensor, uniform_random_tensor
from repro.util import NonFiniteError, ShapeError


def make_simple():
    """The Figure 1a example tensor (0-based)."""
    idx = np.array(
        [
            [0, 0, 0],
            [0, 1, 1],
            [0, 1, 2],
            [1, 0, 2],
            [1, 1, 1],
            [1, 2, 2],
            [2, 0, 0],
        ]
    )
    vals = np.array([5.0, 3.0, 1.0, 2.0, 9.0, 7.0, 9.0])
    return COOTensor((3, 3, 3), idx, vals)


class TestConstruction:
    def test_basic(self):
        t = make_simple()
        assert t.order == 3
        assert t.nnz == 7
        assert t.shape == (3, 3, 3)

    def test_density(self):
        t = make_simple()
        assert t.density == pytest.approx(7 / 27)

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2, 2), np.array([[0, 0, 2]]), np.array([1.0]))

    def test_negative_index_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2, 2), np.array([[0, -1, 0]]), np.array([1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2), np.array([[0, 0], [1, 1]]), np.array([1.0]))

    def test_wrong_mode_count_rejected(self):
        with pytest.raises(ShapeError):
            COOTensor((2, 2, 2), np.array([[0, 0]]), np.array([1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_finite_value_names_first_bad_nonzero(self, bad, dtype):
        t = make_simple()
        vals = t.values.astype(dtype)
        vals[[3, 5]] = bad
        with pytest.raises(NonFiniteError, match=r"nonzero 3 at \(1, 0, 2\)"):
            COOTensor(t.shape, t.indices, vals)

    def test_memory_bytes_paper_formula(self):
        # 32 * nnz for a 3-mode tensor (Section III-C).
        t = make_simple()
        assert t.memory_bytes() == 32 * t.nnz

    def test_from_arrays(self):
        t = COOTensor.from_arrays(
            (3, 3, 3), [np.array([0, 1]), np.array([1, 2]), np.array([2, 0])],
            np.array([1.0, 2.0]),
        )
        assert t.nnz == 2
        np.testing.assert_array_equal(t.indices[1], [1, 2, 0])


class TestTransformations:
    def test_permute_modes(self):
        t = make_simple()
        p = t.permute_modes((2, 0, 1))
        assert p.shape == (3, 3, 3)
        # nonzero (0,1,2) becomes (2,0,1)
        assert p.equal(
            COOTensor(
                (3, 3, 3),
                t.indices[:, [2, 0, 1]],
                t.values,
            )
        )

    def test_permute_rejects_non_permutation(self):
        with pytest.raises(ShapeError):
            make_simple().permute_modes((0, 0, 1))

    def test_sort_lexicographic(self):
        t = uniform_random_tensor((5, 6, 7), 100, seed=1)
        s = t.sort((1, 0, 2))
        key = s.indices[:, 1] * 1000 + s.indices[:, 0] * 10 + s.indices[:, 2]
        assert np.all(np.diff(key) >= 0)

    def test_deduplicate_sums(self):
        idx = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1]])
        t = COOTensor((2, 2, 2), idx, np.array([1.0, 2.0, 4.0]))
        d = t.deduplicate()
        assert d.nnz == 2
        assert d.values.sum() == pytest.approx(7.0)
        assert d.to_dense()[0, 0, 0] == pytest.approx(3.0)

    def test_deduplicate_empty(self):
        t = COOTensor((2, 2), np.empty((0, 2)), np.empty(0))
        assert t.deduplicate().nnz == 0

    def test_filter_mask(self):
        t = make_simple()
        f = t.filter(t.values > 4.0)
        assert f.nnz == 4  # values 5, 9, 7, 9
        assert np.all(f.values > 4.0)

    def test_copy_is_independent(self):
        t = make_simple()
        c = t.copy()
        c.values[0] = 99.0
        assert t.values[0] == 5.0


class TestAnalysis:
    def test_slice_nnz(self):
        t = make_simple()
        np.testing.assert_array_equal(t.slice_nnz(0), [3, 3, 1])
        assert t.slice_nnz(0).sum() == t.nnz

    def test_distinct_per_mode(self):
        t = make_simple()
        assert t.distinct_per_mode() == (3, 3, 3)

    def test_fiber_count_matches_figure(self):
        # Figure 1b shows 6 fibers for the example tensor.
        t = make_simple()
        assert t.fiber_count(slice_mode=0, fiber_mode=2) == 6

    def test_fiber_count_same_mode_rejected(self):
        with pytest.raises(ShapeError):
            make_simple().fiber_count(1, 1)


class TestExtractAndCompact:
    def test_extract_rebases_coordinates(self):
        t = make_simple()
        sub = t.extract([(1, 3), (0, 3), (0, 3)])
        assert sub.shape == (2, 3, 3)
        assert sub.nnz == 4  # rows 1 and 2
        np.testing.assert_array_equal(
            sub.to_dense(), t.to_dense()[1:3, :, :]
        )

    def test_extract_empty_region(self):
        t = make_simple()
        sub = t.extract([(0, 3), (0, 3), (1, 2)])
        assert sub.shape == (3, 3, 1)
        assert sub.values.sum() == pytest.approx(12.0)  # values 3 and 9

    def test_extract_validates_bounds(self):
        t = make_simple()
        with pytest.raises(ShapeError):
            t.extract([(0, 4), (0, 3), (0, 3)])
        with pytest.raises(ShapeError):
            t.extract([(2, 2), (0, 3), (0, 3)])
        with pytest.raises(ShapeError):
            t.extract([(0, 3), (0, 3)])

    def test_compact_removes_empty_slices(self):
        idx = np.array([[0, 5, 9], [0, 5, 2], [7, 5, 9]])
        t = COOTensor((100, 100, 100), idx, np.array([1.0, 2.0, 3.0]))
        compacted, mappings = t.compact()
        assert compacted.shape == (2, 1, 2)
        assert compacted.nnz == 3
        # Round-trip through the mappings recovers the original coords.
        restored = np.stack(
            [mappings[m][compacted.indices[:, m]] for m in range(3)], axis=1
        )
        assert t.equal(COOTensor(t.shape, restored, compacted.values))

    def test_compact_empty_tensor(self):
        t = COOTensor((5, 5), np.empty((0, 2)), np.empty(0))
        compacted, mappings = t.compact()
        assert compacted.nnz == 0
        assert all(m.size == 0 for m in mappings)


class TestDenseConversion:
    def test_roundtrip(self):
        t = uniform_random_tensor((4, 5, 6), 50, seed=2)
        back = COOTensor.from_dense(t.to_dense())
        assert back.equal(t)

    def test_to_dense_values(self):
        t = make_simple()
        d = t.to_dense()
        assert d[0, 0, 0] == 5.0
        assert d[2, 0, 0] == 9.0
        assert d.sum() == pytest.approx(t.values.sum())

    def test_to_dense_guard(self):
        huge = COOTensor(
            (10**4, 10**4, 10**4), np.array([[0, 0, 0]]), np.array([1.0])
        )
        with pytest.raises(ShapeError, match="refusing"):
            huge.to_dense()


class TestEquality:
    def test_equal_ignores_order(self):
        t = make_simple()
        shuffled = COOTensor(t.shape, t.indices[::-1].copy(), t.values[::-1].copy())
        assert t.equal(shuffled)

    def test_unequal_values(self):
        t = make_simple()
        other = t.copy()
        other.values[0] += 1.0
        assert not t.equal(other)

    def test_unequal_shape(self):
        t = make_simple()
        other = COOTensor((4, 3, 3), t.indices, t.values)
        assert not t.equal(other)
