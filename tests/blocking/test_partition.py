"""Tests for COO-to-blocks reorganization."""

import numpy as np
import pytest

from repro.blocking import BlockGrid, partition_coo
from repro.tensor import COOTensor, CSFTensor, uniform_random_tensor
from repro.tensor.csf import splatt_order
from repro.util import ShapeError

MODE0 = splatt_order(0)  # (0, 2, 1): output 0, fiber 2, inner 1


@pytest.fixture
def tensor():
    return uniform_random_tensor((40, 60, 50), 3000, seed=61)


def n_fibers(blocks):
    return sum(b.tree.levels[-1].n_nodes for b in blocks)


class TestPartition:
    def test_nnz_conserved(self, tensor):
        grid = BlockGrid(tensor.shape, (2, 3, 4))
        blocks = partition_coo(tensor, grid, MODE0)
        assert sum(b.tree.nnz for b in blocks) == tensor.nnz

    def test_values_conserved(self, tensor):
        grid = BlockGrid(tensor.shape, (4, 4, 4))
        blocks = partition_coo(tensor, grid, MODE0)
        total = sum(b.tree.vals.sum() for b in blocks)
        assert total == pytest.approx(tensor.values.sum())

    def test_local_indices_within_block_shape(self, tensor):
        grid = BlockGrid(tensor.shape, (2, 5, 3))
        for block in partition_coo(tensor, grid, MODE0):
            local = block.tree.to_coo()
            for m, (lo, hi) in enumerate(block.bounds):
                assert local.shape[m] == hi - lo
                if local.nnz:
                    assert local.indices[:, m].max() < hi - lo

    def test_reassembled_tensor_matches(self, tensor):
        """Shifting every block's local coords by its bounds recovers the
        original tensor exactly — blocks cover and do not overlap."""
        grid = BlockGrid(tensor.shape, (3, 3, 3))
        parts_idx, parts_val = [], []
        for block in partition_coo(tensor, grid, MODE0):
            local = block.tree.to_coo()
            offs = np.array([lo for lo, _ in block.bounds])
            parts_idx.append(local.indices + offs)
            parts_val.append(local.values)
        rebuilt = COOTensor(
            tensor.shape, np.concatenate(parts_idx), np.concatenate(parts_val)
        )
        assert rebuilt.equal(tensor)

    def test_inner_blocking_splits_fibers(self, tensor):
        """Blocking along the inner mode cannot reduce the fiber count."""
        base = CSFTensor.from_coo(tensor, MODE0).levels[-1].n_nodes
        grid = BlockGrid(tensor.shape, (1, 6, 1))
        assert n_fibers(partition_coo(tensor, grid, MODE0)) >= base

    def test_fiber_mode_blocking_preserves_fiber_count(self, tensor):
        """Blocking along the fiber-label mode only regroups fibers."""
        base = CSFTensor.from_coo(tensor, MODE0).levels[-1].n_nodes
        grid = BlockGrid(tensor.shape, (1, 1, 5))
        assert n_fibers(partition_coo(tensor, grid, MODE0)) == base

    def test_loop_order_output_outermost(self, tensor):
        """Output blocks outermost, then the fiber mode, then the inner
        mode: the MB loop order."""
        grid = BlockGrid(tensor.shape, (3, 2, 2))
        coords = [b.coords for b in partition_coo(tensor, grid, MODE0)]
        assert coords == sorted(coords, key=lambda c: (c[0], c[2], c[1]))

    def test_trivial_grid_single_block(self, tensor):
        grid = BlockGrid(tensor.shape, (1, 1, 1))
        blocks = partition_coo(tensor, grid, MODE0)
        assert len(blocks) == 1
        assert blocks[0].tree.nnz == tensor.nnz

    def test_shape_mismatch_rejected(self, tensor):
        grid = BlockGrid((10, 10, 10), (2, 2, 2))
        with pytest.raises(ShapeError):
            partition_coo(tensor, grid, MODE0)

    def test_orientation_respected(self, tensor):
        grid = BlockGrid(tensor.shape, (2, 2, 2))
        blocks = partition_coo(tensor, grid, (1, 0, 2))
        for block in blocks:
            assert block.tree.mode_order == (1, 0, 2)
            assert block.tree.root_mode == 1
        coords = [b.coords for b in blocks]
        assert coords == sorted(coords, key=lambda c: (c[1], c[0], c[2]))
