"""Tests for the general N-mode CSF format."""

import numpy as np
import pytest

from repro.tensor import COOTensor, CSFTensor, uniform_random_tensor
from repro.tensor.csf import splatt_order
from repro.util import FormatError, ShapeError


class TestRoundTrip:
    @pytest.mark.parametrize(
        "shape,nnz",
        [((6, 7), 20), ((5, 6, 7), 80), ((4, 5, 6, 7), 150), ((3, 4, 5, 6, 7), 200)],
    )
    def test_orders_2_to_5(self, shape, nnz):
        t = uniform_random_tensor(shape, nnz, seed=11)
        c = CSFTensor.from_coo(t)
        assert c.to_coo().equal(t)

    def test_arbitrary_mode_order(self):
        t = uniform_random_tensor((5, 6, 7, 8), 120, seed=12)
        c = CSFTensor.from_coo(t, mode_order=(3, 1, 0, 2))
        assert c.root_mode == 3
        assert c.to_coo().equal(t)

    def test_empty(self):
        t = COOTensor((3, 4, 5), np.empty((0, 3)), np.empty(0))
        c = CSFTensor.from_coo(t)
        assert c.nnz == 0
        assert c.to_coo().equal(t)


class TestSplattEquivalence:
    """A 3-mode CSF with SPLATT's mode ordering has SPLATT's arrays."""

    def test_arrays_match(self):
        t = uniform_random_tensor((8, 10, 12), 200, seed=13)
        c = CSFTensor.from_coo(t, mode_order=splatt_order(0))  # inner=1, fiber=2
        # SPLATT's arrays, built per fiber: nonzeros sorted by (i, k, j),
        # one fiber per distinct (i, k).
        perm = np.lexsort((t.indices[:, 1], t.indices[:, 2], t.indices[:, 0]))
        i, j, k = t.indices[perm].T
        fibers = sorted(set(zip(i.tolist(), k.tolist())))
        lengths = [int(np.sum((i == fi) & (k == fk))) for fi, fk in fibers]
        # Level-1 nodes are the fibers.
        assert c.levels[1].n_nodes == len(fibers)
        np.testing.assert_array_equal(c.levels[0].fids, np.unique(i))
        np.testing.assert_array_equal(c.levels[1].fids, [fk for _, fk in fibers])
        np.testing.assert_array_equal(c.levels[1].fptr, np.cumsum([0, *lengths]))
        np.testing.assert_array_equal(c.leaf_fids, j)
        np.testing.assert_array_equal(c.vals, t.values[perm])

    def test_node_counts_monotone(self):
        t = uniform_random_tensor((8, 10, 12), 300, seed=14)
        c = CSFTensor.from_coo(t)
        counts = c.nodes_per_level()
        assert all(a <= b for a, b in zip(counts, counts[1:]))


class TestStructure:
    def test_leaf_spans_sum_to_nnz(self):
        t = uniform_random_tensor((6, 7, 8, 9), 250, seed=15)
        c = CSFTensor.from_coo(t)
        for span in c.leaf_spans():
            assert span.sum() == c.nnz

    def test_root_fids_unique(self):
        t = uniform_random_tensor((6, 7, 8), 100, seed=16)
        c = CSFTensor.from_coo(t)
        fids = c.levels[0].fids
        assert np.unique(fids).size == fids.size

    def test_memory_bytes_positive(self):
        t = uniform_random_tensor((6, 7, 8), 100, seed=17)
        c = CSFTensor.from_coo(t)
        assert 0 < c.memory_bytes() <= t.memory_bytes() + 8 * (
            c.nodes_per_level()[0] + 1
        ) * 4


class TestValidation:
    def test_bad_mode_order(self):
        t = uniform_random_tensor((4, 5, 6), 30, seed=18)
        with pytest.raises(ShapeError):
            CSFTensor.from_coo(t, mode_order=(0, 0, 1))

    def test_invariant_violation_detected(self):
        t = uniform_random_tensor((4, 5, 6), 60, seed=19)
        c = CSFTensor.from_coo(t)
        c.levels[0].fptr[-1] += 1
        with pytest.raises(FormatError):
            c.check_invariants()

    def test_leaf_bounds_checked(self):
        t = uniform_random_tensor((4, 5, 6), 60, seed=20)
        c = CSFTensor.from_coo(t)
        c.leaf_fids[0] = 1000
        with pytest.raises(FormatError):
            c.check_invariants()
