"""Property-based tests for the tensor formats (hypothesis)."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocking import BlockGrid, partition_coo
from repro.kernels.csf_mttkrp import row_pointers
from repro.tensor import COOTensor, CSFTensor
from repro.tensor.coo import lex_order
from repro.tensor.csf import splatt_order
from repro.tensor.stats import splatt_footprint


@st.composite
def coo_tensors(draw, max_order=4, max_extent=12, max_nnz=60):
    """Random small COO tensors (possibly with duplicate coordinates)."""
    order = draw(st.integers(2, max_order))
    shape = tuple(
        draw(st.integers(1, max_extent)) for _ in range(order)
    )
    nnz = draw(st.integers(0, max_nnz))
    idx_cols = [
        draw(
            st.lists(
                st.integers(0, extent - 1), min_size=nnz, max_size=nnz
            )
        )
        for extent in shape
    ]
    indices = np.array(idx_cols, dtype=np.int64).T.reshape(nnz, order)
    values = np.array(
        draw(
            st.lists(
                st.floats(-100, 100, allow_nan=False, width=32),
                min_size=nnz,
                max_size=nnz,
            )
        ),
        dtype=np.float64,
    )
    return COOTensor(shape, indices, values)


@given(coo_tensors())
@settings(max_examples=60, deadline=None)
def test_dedup_preserves_sum_and_canonicalizes(t):
    d = t.deduplicate()
    assert d.nnz <= t.nnz
    np.testing.assert_allclose(d.values.sum(), t.values.sum(), rtol=1e-9, atol=1e-9)
    # Canonical: sorted and duplicate-free.
    if d.nnz > 1:
        keys = [tuple(row) for row in d.indices]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


@given(coo_tensors())
@settings(max_examples=60, deadline=None)
def test_csf_roundtrip_any_order(t):
    c = CSFTensor.from_coo(t.deduplicate())
    c.check_invariants()
    assert c.to_coo().equal(t.deduplicate())


@given(coo_tensors(max_order=3), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_splatt_roundtrip_any_mode(t, mode):
    if t.order != 3:
        t3_shape = (t.shape + (3, 3))[:3]
        return  # composite gives mixed orders; only 3-mode is valid here
    s = CSFTensor.from_coo(t, splatt_order(mode))
    s.check_invariants()
    assert s.to_coo().equal(t)
    # The paper's memory formula counts the tree's fibers.
    n_fibers = s.levels[1].n_nodes
    assert splatt_footprint(t, mode) == (
        n_fibers, 16 + 8 * t.shape[mode] + 16 * n_fibers + 16 * t.nnz
    )


@given(coo_tensors(max_order=3))
@settings(max_examples=40, deadline=None)
def test_permutation_roundtrip(t):
    order = t.order
    perm = tuple(reversed(range(order)))
    inverse = tuple(perm.index(m) for m in range(order))
    assert t.permute_modes(perm).permute_modes(inverse).equal(t)


@given(coo_tensors(max_order=3, max_nnz=40))
@settings(max_examples=40, deadline=None)
def test_slice_nnz_partitions_nonzeros(t):
    for mode in range(t.order):
        counts = t.slice_nnz(mode)
        assert counts.shape[0] == t.shape[mode]
        assert counts.sum() == t.nnz


# ----------------------------------------------------------------------
# lex_order: the one nonzero sort, pinned to np.lexsort's permutation
# ----------------------------------------------------------------------
@st.composite
def sort_columns(draw):
    """Shuffled coordinate columns over tiny extents (duplicates common)."""
    order = draw(st.integers(1, 5))
    extents = [draw(st.integers(1, 4)) for _ in range(order)]
    nnz = draw(st.integers(0, 60))
    cols = [
        np.array(
            draw(st.lists(st.integers(0, e - 1), min_size=nnz, max_size=nnz)),
            dtype=np.int64,
        )
        for e in extents
    ]
    shuffle = np.array(draw(st.permutations(range(nnz))), dtype=np.int64)
    return [c[shuffle] for c in cols], extents


@given(sort_columns())
@settings(max_examples=200, deadline=None)
def test_lex_order_equals_lexsort(case):
    cols, extents = case
    order = lex_order(cols, extents)
    np.testing.assert_array_equal(order, np.lexsort(cols[::-1]))


def _splatt_reference(shape, out, inner, idx, vals):
    """SPLATT arrays built independently of the library: lexsort by
    (output, fiber, inner), then compress runs of equal (output, fiber)."""
    fiber = 3 - out - inner
    perm = np.lexsort((idx[:, inner], idx[:, fiber], idx[:, out]))
    i, k, j = idx[perm][:, [out, fiber, inner]].T
    starts = np.flatnonzero(
        np.r_[True, (i[1:] != i[:-1]) | (k[1:] != k[:-1])]
    ) if i.size else np.empty(0, dtype=np.int64)
    row_ptr = np.r_[0, np.cumsum(np.bincount(i[starts], minlength=shape[out]))]
    return {
        "row_ptr": row_ptr,
        "fiber_kidx": k[starts],
        "fiber_ptr": np.r_[starts, i.size],
        "jidx": j,
        "vals": vals[perm],
    }


def _assert_splatt_equal(tree, ref):
    """A tree in the SPLATT orientation holds SPLATT's arrays."""
    got = {
        "row_ptr": row_pointers(tree)[0],
        "fiber_kidx": tree.levels[1].fids,
        "fiber_ptr": tree.levels[1].fptr,
        "jidx": tree.leaf_fids,
        "vals": tree.vals,
    }
    for name, expected in ref.items():
        np.testing.assert_array_equal(got[name], expected, err_msg=name)


@st.composite
def partition_cases(draw, orders=(2, 4)):
    """A tensor of ``orders[0]`` to ``orders[1]`` modes with duplicate
    coordinates likely, a uniform or explicit-boundary grid over it, and
    a mode order."""
    order = draw(st.integers(*orders))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(order))
    nnz = draw(st.integers(0, 60))
    idx = np.array(
        [
            draw(st.lists(st.integers(0, e - 1), min_size=nnz, max_size=nnz))
            for e in shape
        ],
        dtype=np.int64,
    ).T.reshape(nnz, order)
    vals = np.arange(1, nnz + 1, dtype=np.float64)
    tensor = COOTensor(shape, idx, vals)
    if draw(st.booleans()):
        grid = BlockGrid(shape, [draw(st.integers(1, e)) for e in shape])
    else:
        grid = BlockGrid.from_boundaries(
            shape,
            [
                [0, *sorted(draw(st.sets(st.integers(1, e - 1), max_size=3))), e]
                if e > 1
                else [0, 1]
                for e in shape
            ],
        )
    mode_order = tuple(draw(st.permutations(range(order))))
    return tensor, grid, mode_order


def _csf_reference(mode_order, idx, vals):
    """CSF arrays built independently of the library: lexsort along
    ``mode_order``, then one node per run of equal coordinate prefixes."""
    perm = np.lexsort([idx[:, m] for m in reversed(mode_order)])
    cols = [idx[perm, m] for m in mode_order]
    nnz = idx.shape[0]
    changed = np.zeros(nnz, dtype=bool)
    changed[:1] = True
    starts = []
    for col in cols[:-1]:
        changed[1:] |= col[1:] != col[:-1]
        starts.append(np.flatnonzero(changed))
    levels = []
    for lvl, st_l in enumerate(starts):
        below = starts[lvl + 1] if lvl + 1 < len(starts) else np.arange(nnz)
        fptr = np.r_[np.searchsorted(below, st_l), below.size]
        levels.append((cols[lvl][st_l], fptr))
    return levels, cols[-1], vals[perm]


def _check_partition(tensor, grid, mode_order, check_tree):
    """Partition once and hand every block's tree, with the block's
    local nonzeros, to ``check_tree``; the blocks must come in the MB
    loop order (the output block outermost, the rest following the mode
    order), skip empty blocks of a multi-block grid, and cover every
    nonzero."""
    blocks = partition_coo(tensor, grid, mode_order)
    loop_order = sorted(
        itertools.product(*(range(n) for n in grid.block_counts)),
        key=lambda c: [c[m] for m in mode_order],
    )
    expected = []
    for coords in loop_order:
        bounds = grid.block_bounds(coords)
        mask = np.ones(tensor.nnz, dtype=bool)
        for m, (lo, hi) in enumerate(bounds):
            mask &= (tensor.indices[:, m] >= lo) & (tensor.indices[:, m] < hi)
        if grid.n_blocks > 1 and not mask.any():
            continue
        lows = np.array([lo for lo, _ in bounds])
        expected.append(
            (coords, bounds, tensor.indices[mask] - lows, tensor.values[mask])
        )
    assert [b.coords for b in blocks] == [e[0] for e in expected]
    for block, (coords, bounds, idx, vals) in zip(blocks, expected):
        assert block.bounds == bounds
        assert block.tree.shape == tuple(hi - lo for lo, hi in bounds)
        assert block.tree.mode_order == tuple(mode_order)
        check_tree(block.tree, idx, vals)
    assert sum(b.tree.nnz for b in blocks) == tensor.nnz


@given(partition_cases(orders=(3, 3)), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_partition_coo_matches_per_block_lexsort(case, out):
    """In the SPLATT orientation each block holds SPLATT's arrays, equal
    to a per-block lexsort by (output, fiber, inner)."""
    tensor, grid, _ = case
    order = splatt_order(out)

    def check_tree(tree, idx, vals):
        _assert_splatt_equal(
            tree, _splatt_reference(tree.shape, out, order[2], idx, vals)
        )

    _check_partition(tensor, grid, order, check_tree)


@given(partition_cases())
@settings(max_examples=150, deadline=None)
def test_partition_coo_nd_matches_per_block_lexsort(case):
    """One sort serves every block, for 2- to 4-mode tensors and every
    mode order: each block's CSF tree equals a per-block lexsort
    reference, array for array."""
    tensor, grid, mode_order = case

    def check_tree(tree, idx, vals):
        levels, leaf_fids, ref_vals = _csf_reference(mode_order, idx, vals)
        for level, (fids, fptr) in zip(tree.levels, levels):
            np.testing.assert_array_equal(level.fids, fids)
            np.testing.assert_array_equal(level.fptr, fptr)
        np.testing.assert_array_equal(tree.leaf_fids, leaf_fids)
        np.testing.assert_array_equal(tree.vals, ref_vals)

    _check_partition(tensor, grid, mode_order, check_tree)


# ----------------------------------------------------------------------
# The int64-overflow guard: Amazon's paper dimensions (4.8M x 1.8M x 1.8M)
# ----------------------------------------------------------------------
AMAZON_SHAPE = (4_821_207, 1_774_269, 1_805_187)


def _amazon_corner_tensor():
    """A few dozen nonzeros in the top 45% of every extent, some repeated.
    The product of the extents exceeds 2**63, and the leading coordinates
    straddle the point where a packed key would wrap, so a sort on an
    unguarded packed key orders them wrongly."""
    rng = np.random.default_rng(7)
    idx = np.stack(
        [rng.integers(int(0.55 * e), e, size=40) for e in AMAZON_SHAPE], axis=1
    )
    idx = np.concatenate([idx, idx[::5]])[rng.permutation(48)]
    return COOTensor(AMAZON_SHAPE, idx, np.arange(1.0, 49.0))


def test_lex_order_overflow_guard_matches_lexsort():
    assert np.prod([float(e) for e in AMAZON_SHAPE]) > 2.0**63
    t = _amazon_corner_tensor()
    cols = [t.indices[:, m] for m in range(3)]
    ref = np.lexsort(cols[::-1])
    np.testing.assert_array_equal(lex_order(cols, AMAZON_SHAPE), ref)

    s = t.sort()
    np.testing.assert_array_equal(s.indices, t.indices[ref])
    np.testing.assert_array_equal(s.values, t.values[ref])

    d = t.deduplicate()
    rows, first, group = np.unique(
        t.indices[ref], axis=0, return_index=True, return_inverse=True
    )
    summed = np.zeros(rows.shape[0])
    np.add.at(summed, group.ravel(), t.values[ref])
    assert d.nnz == rows.shape[0] < t.nnz
    np.testing.assert_array_equal(d.indices, rows)
    np.testing.assert_array_equal(d.values, summed)

    # CSF over (0, 1, 2) is the SPLATT layout with output 0, fiber 1,
    # inner 2 (levels: slices, fibers, leaves).
    csf = CSFTensor.from_coo(t)
    ref_csf = _splatt_reference(t.shape, 0, 2, t.indices, t.values)
    np.testing.assert_array_equal(csf.levels[0].fids, np.unique(t.indices[:, 0]))
    np.testing.assert_array_equal(csf.levels[0].fptr, np.unique(ref_csf["row_ptr"]))
    np.testing.assert_array_equal(csf.levels[1].fids, ref_csf["fiber_kidx"])
    np.testing.assert_array_equal(csf.levels[1].fptr, ref_csf["fiber_ptr"])
    np.testing.assert_array_equal(csf.leaf_fids, ref_csf["jidx"])
    np.testing.assert_array_equal(csf.vals, ref_csf["vals"])


def test_splatt_overflow_guard_matches_lexsort():
    t = _amazon_corner_tensor()
    for out in (1, 2):
        tree = CSFTensor.from_coo(t, splatt_order(out))
        ref = _splatt_reference(t.shape, out, (out + 1) % 3, t.indices, t.values)
        _assert_splatt_equal(tree, ref)
