"""Tests for BlockGrid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import BlockGrid
from repro.util import ConfigError, ShapeError


class TestUniformGrid:
    def test_counts_and_total(self):
        g = BlockGrid((10, 20, 30), (2, 4, 5))
        assert g.block_counts == (2, 4, 5)
        assert g.n_blocks == 40

    def test_boundaries_cover_exactly(self):
        g = BlockGrid((10, 21, 33), (3, 4, 5))
        for extent, bounds in zip(g.shape, g.boundaries):
            assert bounds[0] == 0
            assert bounds[-1] == extent
            assert np.all(np.diff(bounds) >= 1)

    def test_near_equal_widths(self):
        g = BlockGrid((100,), (7,))
        widths = np.diff(g.boundaries[0])
        assert widths.max() - widths.min() <= 1

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ConfigError):
            BlockGrid((3, 3, 3), (4, 1, 1))

    def test_zero_blocks_rejected(self):
        with pytest.raises(ConfigError):
            BlockGrid((3, 3, 3), (0, 1, 1))

    def test_count_arity_checked(self):
        with pytest.raises(ShapeError):
            BlockGrid((3, 3, 3), (1, 1))


class TestBlockMapping:
    def test_block_of_and_coords_roundtrip(self):
        g = BlockGrid((10, 12, 14), (2, 3, 7))
        rng = np.random.default_rng(1)
        idx = np.stack(
            [rng.integers(0, e, 200) for e in g.shape], axis=1
        )
        flat = g.block_of(idx)
        assert flat.min() >= 0 and flat.max() < g.n_blocks
        for t in range(0, 200, 17):
            coords = g.block_coords(int(flat[t]))
            bounds = g.block_bounds(coords)
            for m, (lo, hi) in enumerate(bounds):
                assert lo <= idx[t, m] < hi

    def test_every_index_in_exactly_one_block(self):
        g = BlockGrid((9,), (4,))
        all_idx = np.arange(9).reshape(-1, 1)
        flat = g.block_of(all_idx)
        counts = np.bincount(flat, minlength=4)
        assert counts.sum() == 9
        # Contiguity: blocks are intervals.
        assert np.all(np.diff(flat) >= 0)

    def test_block_shape(self):
        g = BlockGrid((10, 10), (2, 5))
        assert g.block_shape((0, 0)) == (5, 2)

    def test_bad_coords_rejected(self):
        g = BlockGrid((10, 10), (2, 5))
        with pytest.raises(ConfigError):
            g.block_bounds((2, 0))

    def test_indices_shape_checked(self):
        g = BlockGrid((10, 10), (2, 2))
        with pytest.raises(ShapeError):
            g.block_of(np.zeros((5, 3), dtype=np.int64))


class TestExplicitBoundaries:
    def test_non_uniform(self):
        g = BlockGrid.from_boundaries((10,), [[0, 7, 10]])
        assert g.block_counts == (2,)
        assert g.block_bounds((0,)) == ((0, 7),)
        assert g.block_bounds((1,)) == ((7, 10),)

    def test_must_span(self):
        with pytest.raises(ConfigError):
            BlockGrid.from_boundaries((10,), [[0, 5, 9]])
        with pytest.raises(ConfigError):
            BlockGrid.from_boundaries((10,), [[1, 10]])

    def test_must_increase(self):
        with pytest.raises(ConfigError):
            BlockGrid.from_boundaries((10,), [[0, 5, 5, 10]])

    def test_matches_uniform_semantics(self):
        uni = BlockGrid((20, 20), (4, 2))
        exp = BlockGrid.from_boundaries(
            (20, 20), [uni.boundaries[0], uni.boundaries[1]]
        )
        idx = np.stack(np.meshgrid(np.arange(20), np.arange(20)), -1).reshape(-1, 2)
        np.testing.assert_array_equal(uni.block_of(idx), exp.block_of(idx))


class TestBlockOfBounds:
    """block_of must reject out-of-range coordinates, not clamp them."""

    def test_negative_coordinate_rejected(self):
        g = BlockGrid((10, 10), (2, 2))
        idx = np.array([[0, 0], [-1, 3]], dtype=np.int64)
        with pytest.raises(ShapeError, match="mode-0"):
            g.block_of(idx)

    def test_coordinate_at_extent_rejected(self):
        g = BlockGrid((10, 12), (2, 3))
        idx = np.array([[3, 12]], dtype=np.int64)
        with pytest.raises(ShapeError, match="mode-1"):
            g.block_of(idx)

    def test_in_range_still_mapped(self):
        g = BlockGrid((10,), (2,))
        idx = np.array([[0], [4], [5], [9]], dtype=np.int64)
        flat = g.block_of(idx)
        np.testing.assert_array_equal(flat, [0, 0, 1, 1])


@st.composite
def grids_and_coords(draw):
    """A uniform or explicit-boundary grid of 1-4 modes and in-range
    coordinates for it."""
    shape = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    boundaries = []
    for extent in shape:
        cuts = draw(st.sets(st.integers(1, extent - 1), max_size=6)) if extent > 1 else set()
        boundaries.append([0, *sorted(cuts), extent])
    if draw(st.booleans()):
        grid = BlockGrid.from_boundaries(shape, boundaries)
    else:
        grid = BlockGrid(shape, [len(b) - 1 for b in boundaries])
    n = draw(st.integers(0, 30))
    cols = [draw(st.lists(st.integers(0, e - 1), min_size=n, max_size=n)) for e in shape]
    return grid, np.array(cols, dtype=np.int64).T.reshape(n, len(shape))


@given(grids_and_coords())
@settings(max_examples=200, deadline=None)
def test_block_of_matches_binary_search(problem):
    grid, idx = problem
    want = np.zeros(idx.shape[0], dtype=np.int64)
    for m, bounds in enumerate(grid.boundaries):
        coord = np.searchsorted(bounds[1:], idx[:, m], side="right")
        want = want * (bounds.shape[0] - 1) + coord
    np.testing.assert_array_equal(grid.block_of(idx), want)
