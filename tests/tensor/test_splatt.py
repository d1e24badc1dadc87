"""The SPLATT layout (Figure 1b) as a 3-mode CSF tree in the SPLATT
orientation: level 0 holds the output rows, level 1 the fibers, the
leaves the nonzeros; SPLATT's dense ``row_ptr`` is the root level
written out per row."""

import numpy as np
import pytest

from repro.kernels.csf_mttkrp import row_pointers
from repro.tensor import COOTensor, CSFTensor, uniform_random_tensor
from repro.tensor.csf import splatt_order
from repro.tensor.stats import splatt_footprint
from repro.util import FormatError, ShapeError
from repro.util.errors import ReproError


def figure1_tensor():
    """The paper's Figure 1 example (converted to 0-based indices)."""
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


def splatt_tree(t, mode=0):
    return CSFTensor.from_coo(t, splatt_order(mode))


class TestFigure1:
    """Check the compressed arrays against the structures drawn in Fig 1b."""

    def test_fiber_count(self):
        s = splatt_tree(figure1_tensor())
        assert s.levels[1].n_nodes == 6

    def test_pointers(self):
        s = splatt_tree(figure1_tensor())
        # Rows own 3, 2, 1 fibers; the row-1 fiber at k=2 holds 2 nonzeros.
        np.testing.assert_array_equal(row_pointers(s)[0], [0, 3, 5, 6])
        np.testing.assert_array_equal(s.levels[1].fptr, [0, 1, 2, 3, 4, 6, 7])

    def test_fiber_kidx(self):
        s = splatt_tree(figure1_tensor())
        # Figure 1b's k_index column (0-based): rows sorted by (i, k).
        np.testing.assert_array_equal(s.levels[1].fids, [0, 1, 2, 1, 2, 0])

    def test_values_and_jidx(self):
        s = splatt_tree(figure1_tensor())
        np.testing.assert_array_equal(s.vals, [5.0, 3.0, 1.0, 9.0, 2.0, 7.0, 9.0])
        np.testing.assert_array_equal(s.leaf_fids, [0, 1, 1, 1, 0, 2, 0])

    def test_memory_formula(self):
        expected = 16 + 8 * 3 + 16 * 6 + 16 * 7
        assert splatt_footprint(figure1_tensor(), 0) == (6, expected)


class TestRoundTrip:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_all_output_modes(self, mode):
        t = uniform_random_tensor((10, 12, 14), 300, seed=3)
        s = splatt_tree(t, mode)
        assert s.root_mode == mode
        assert s.to_coo().equal(t)

    @pytest.mark.parametrize("inner", [1, 2])
    def test_inner_mode_choice(self, inner):
        t = uniform_random_tensor((10, 12, 14), 300, seed=3)
        s = CSFTensor.from_coo(t, (0, 3 - inner, inner))
        assert s.mode_order[-1] == inner
        assert s.to_coo().equal(t)

    def test_empty_tensor(self):
        t = COOTensor((4, 5, 6), np.empty((0, 3)), np.empty(0))
        s = splatt_tree(t)
        assert s.nnz == 0
        assert s.levels[1].n_nodes == 0
        assert s.to_coo().equal(t)

    def test_duplicates_preserved(self):
        idx = np.array([[0, 1, 0], [0, 1, 0]])
        t = COOTensor((2, 2, 2), idx, np.array([1.0, 2.0]))
        s = splatt_tree(t)
        assert s.nnz == 2
        assert s.levels[1].n_nodes == 1


class TestProperties:
    def test_fiber_stats(self):
        s = splatt_tree(figure1_tensor())
        assert np.diff(s.levels[1].fptr).sum() == s.nnz
        assert np.diff(row_pointers(s)[0]).sum() == s.levels[1].n_nodes

    def test_extents(self):
        t = uniform_random_tensor((5, 7, 9), 50, seed=4)
        s = splatt_tree(t, 1)
        assert s.mode_order == (1, 0, 2)  # output 1, fiber 0, inner 2
        assert row_pointers(s)[0].shape == (t.shape[1] + 1,)
        assert s.leaf_fids.max() < t.shape[2]
        assert s.levels[1].fids.max() < t.shape[0]

    def test_fewer_fibers_than_nnz_when_clustered(self):
        # Dense-ish tensor: fibers group multiple nonzeros.
        t = uniform_random_tensor((5, 20, 5), 400, seed=5)
        s = splatt_tree(t)
        assert s.levels[1].n_nodes < s.nnz


class TestValidation:
    def test_order_check(self):
        t4 = uniform_random_tensor((3, 3, 3, 3), 10, seed=6)
        with pytest.raises(ShapeError):
            splatt_tree(t4)

    def test_bad_orientation(self):
        t = figure1_tensor()
        with pytest.raises(ShapeError):
            CSFTensor.from_coo(t, (0, 1, 1))

    def test_invariant_bad_row_ptr(self):
        s = splatt_tree(figure1_tensor())
        s.levels[0].fptr[-1] += 1
        with pytest.raises(FormatError):
            s.check_invariants()

    def test_invariant_empty_fiber(self):
        s = splatt_tree(figure1_tensor())
        s.levels[1].fptr[1] = s.levels[1].fptr[0]
        with pytest.raises(FormatError):
            s.check_invariants()

    def test_invariant_jidx_bounds(self):
        s = splatt_tree(figure1_tensor())
        s.leaf_fids[0] = 99
        with pytest.raises(ReproError):
            s.check_invariants()
