"""The compiled fiber and segment sums: their loader, their plan-build
seal, and their O(1) guards.

``fiber_sums`` and ``segment_sums_into`` hand plan arrays to scipy's
``csr_matvecs``, which does no bounds checks, so these tests pin the
three things that keep it inside its operands: every plan checks its
leaf indices and pointers when it is built, then freezes them; the
helpers check shapes and dtypes on every call.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro.kernels.base as base
from repro.blocking import BlockGrid, partition_coo
from repro.kernels import get_kernel
from repro.kernels.base import fiber_sums, segment_sums_into, unit_csr
from repro.kernels.csf_mttkrp import CSFPlan, execute_block_into, row_pointers
from repro.tensor import COOTensor, CSFTensor, poisson_tensor
from repro.tensor.csf import splatt_order
from repro.util.errors import ShapeError

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(scope="module")
def tensor():
    return poisson_tensor((12, 15, 9), 400, seed=3)


def test_matches_naive_loop():
    rng = np.random.default_rng(0)
    ptr = np.array([0, 3, 3, 7, 8])
    idx = rng.integers(0, 6, 8)
    vals = rng.standard_normal(8)
    X = rng.standard_normal((6, 4))
    [(f0, f1, got)] = fiber_sums(ptr, idx, vals, X, 6)
    want = np.zeros((4, 4))
    for f in range(4):
        for t in range(ptr[f], ptr[f + 1]):
            want[f] = want[f] + vals[t] * X[idx[t]]
    assert (f0, f1) == (0, 4)
    np.testing.assert_array_equal(got, want)


def test_chunks_and_strided_operand_agree():
    rng = np.random.default_rng(1)
    ptr = np.array([0, 2, 5, 6, 9, 10])
    idx = rng.integers(0, 7, 10)
    vals = rng.standard_normal(10).astype(np.float32)
    wide = rng.standard_normal((7, 8)).astype(np.float32)
    strip = wide[:, 2:5]
    [(_, _, whole)] = fiber_sums(ptr, idx, vals, np.ascontiguousarray(strip), 7)
    pieces = list(fiber_sums(ptr, idx, vals, strip, 7, [0, 2, 5]))
    assert [(f0, f1) for f0, f1, _ in pieces] == [(0, 2), (2, 5)]
    assert all(y.dtype == np.float32 for _, _, y in pieces)
    np.testing.assert_array_equal(np.concatenate([y for _, _, y in pieces]), whole)


def test_operand_extent_and_dtype_are_checked():
    ptr, idx, vals = np.array([0, 2]), np.array([0, 4]), np.ones(2)
    with pytest.raises(ShapeError, match="5 rows"):
        list(fiber_sums(ptr, idx, vals, np.ones((4, 3)), 5))
    with pytest.raises(ShapeError, match="float32 or float64"):
        list(fiber_sums(ptr, idx, vals, np.ones((5, 3), dtype=np.int64), 5))


def naive_segment_sums(ptr, X, Y):
    want = Y.copy()
    for r in range(ptr.shape[0] - 1):
        for f in range(ptr[r], ptr[r + 1]):
            want[r] = want[r] + X[f]
    return want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sums_match_naive_loop_with_empty_rows(dtype):
    rng = np.random.default_rng(2)
    ptr = np.array([0, 0, 3, 3, 4, 9, 9])  # rows 0, 2 and 5 are empty
    X = rng.standard_normal((9, 5)).astype(dtype)
    Y = rng.standard_normal((6, 5)).astype(dtype)
    want = naive_segment_sums(ptr, X, Y)
    segment_sums_into(ptr, X, Y, unit_csr(12, dtype))
    assert Y.dtype == dtype
    np.testing.assert_array_equal(Y, want)


def test_segment_sums_into_a_strided_view():
    rng = np.random.default_rng(3)
    ptr = np.array([0, 2, 2, 5])
    X = rng.standard_normal((5, 3)).astype(np.float32)
    wide = rng.standard_normal((3, 8)).astype(np.float32)
    want = wide.copy()
    want[:, 2:5] = naive_segment_sums(ptr, X, wide[:, 2:5])
    segment_sums_into(ptr, X, wide[:, 2:5], unit_csr(5, np.float32))
    np.testing.assert_array_equal(wide, want)


def test_segment_sums_check_their_operands():
    ptr, X = np.array([0, 2, 4]), np.ones((4, 3))
    unit = unit_csr(4, np.float64)
    for bad_ptr, Y, unit_ in [
        (np.array([0, 2, 5]), np.zeros((2, 3)), unit),  # ends past X
        (np.array([1, 2, 4]), np.zeros((2, 3)), unit),  # does not start at 0
        (ptr, np.zeros((3, 3)), unit),  # one row too many
        (ptr, np.zeros((2, 3), dtype=np.float32), unit),  # dtype
        (ptr, np.zeros((2, 3)), unit_csr(3, np.float64)),  # unit too short
    ]:
        with pytest.raises(ShapeError, match="segment sums"):
            segment_sums_into(bad_ptr, X, Y, unit_)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_heavy_row_over_budget_gives_the_same_bits(dtype):
    # Row 1 owns 30 fibers, more than any budget below allows in a chunk:
    # it becomes a chunk of its own, and every budget yields the same bits.
    rng = np.random.default_rng(4)
    shape = (4, 7, 40)
    idx = np.unique(
        np.concatenate([
            np.stack([np.ones(60, int), rng.integers(0, 7, 60), np.arange(60) % 30], 1),
            np.stack([rng.choice([0, 3], 40), rng.integers(0, 7, 40),
                      rng.integers(0, 40, 40)], 1),
        ]),
        axis=0,
    )
    coo = COOTensor(shape, idx, rng.standard_normal(idx.shape[0]).astype(dtype))
    tree = CSFTensor.from_coo(coo, splatt_order(0))
    row_ptrs = row_pointers(tree)
    assert np.diff(row_ptrs[0])[1] == 30
    B = rng.standard_normal((7, 6)).astype(dtype)
    C = rng.standard_normal((40, 6)).astype(dtype)
    outs = []
    for budget in (1, 6 * 4, 6 * 25, 1 << 20):
        A = np.zeros((4, 6), dtype=dtype)
        execute_block_into(tree, row_ptrs, [None, B, C], A, scratch_elems=budget)
        outs.append(A)
    for A in outs[1:]:
        np.testing.assert_array_equal(A, outs[0])
    dense = np.zeros(shape)
    np.add.at(dense, tuple(coo.indices.T), coo.values)
    want = np.einsum("ijk,jr,kr->ir", dense, B.astype(float), C.astype(float))
    np.testing.assert_allclose(outs[0], want, rtol=1e-4 if dtype == np.float32 else 1e-12)


def test_tampered_splatt_index_raises_at_plan_build(tensor):
    grid = BlockGrid(tensor.shape, (2, 2, 1))
    blocks = partition_coo(tensor, grid, splatt_order(0))
    block = blocks[-1]
    block.tree.leaf_fids[0] = block.tree.shape[1]
    with pytest.raises(ShapeError, match=re.escape(f"block {block.coords}, mode 1")):
        CSFPlan("mb", 0, splatt_order(0), grid, blocks)


def test_tampered_splatt_pointer_raises_at_plan_build(tensor):
    grid = BlockGrid(tensor.shape, (1, 1, 1))
    blocks = partition_coo(tensor, grid, splatt_order(0))
    tree = blocks[0].tree
    tree.levels[-1].fptr[1] = tree.nnz + 5
    with pytest.raises(ShapeError, match="monotone"):
        CSFPlan("splatt", 0, splatt_order(0), grid, blocks)


def test_tampered_csf_leaf_raises_at_plan_build(tensor):
    grid = BlockGrid(tensor.shape, (2, 1, 2))
    blocks = partition_coo(tensor, grid, (0, 2, 1))
    block = blocks[0]
    block.tree.leaf_fids[-1] = -1
    with pytest.raises(ShapeError, match=re.escape(f"block {block.coords}, mode 1")):
        CSFPlan("csf-blocked", 0, (0, 2, 1), grid, blocks)


@pytest.mark.parametrize(
    "name,params",
    [("splatt", {}), ("mb", {"block_counts": (2, 2, 2)}), ("csf", {}),
     ("csf-blocked", {"block_counts": (2, 2, 2)}), ("csf-any", {})],
)
def test_built_plan_arrays_are_read_only(tensor, name, params):
    plan = get_kernel(name).prepare(tensor, 0, **params)
    for block in plan.blocks:
        tree = block.tree
        for array in (tree.leaf_fids, tree.vals, *(lvl.fptr for lvl in tree.levels)):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
    for row_ptrs in getattr(plan, "row_ptrs", ()):
        with pytest.raises(ValueError, match="read-only"):
            row_ptrs[0][0] = 0


def test_coo_row_pointers_are_read_only(tensor):
    plan = get_kernel("coo").prepare(tensor, 0)
    assert plan.row_ptr.shape == (tensor.shape[0] + 1,)
    assert plan.row_ptr[-1] == tensor.nnz
    with pytest.raises(ValueError, match="read-only"):
        plan.row_ptr[0] = 0


def test_csf_any_leaf_target_csr_is_read_only(tensor):
    for mode, level in ((1, 2), (2, 1)):
        plan = get_kernel("csf-any").prepare(tensor, mode, mode_order=(0, 2, 1))
        assert plan.target_level == level
        for field in ("scatter_ptr", "scatter_cols", "scatter_vals", "scatter_rows"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(plan, field)[0] = 0


def test_missing_extension_names_the_scipy_version(monkeypatch):
    monkeypatch.setattr(base, "_sparsetools_path", lambda: None)
    with pytest.raises(ImportError, match=r"scipy \d+\.\d+"):
        base.load_csr_matvecs()


def test_missing_symbol_names_the_scipy_version(monkeypatch, tmp_path):
    fake = tmp_path / "_sparsetools.py"
    fake.write_text("csr_matvec = None\n")
    monkeypatch.setattr(base, "_sparsetools_path", lambda: str(fake))
    with pytest.raises(ImportError, match=r"scipy \d+\.\d+.*_sparsetools\.py"):
        base.load_csr_matvecs()


def test_no_scipy_import_and_scipy_sparse_still_works():
    """The package never imports ``scipy`` itself; a later ``import
    scipy.sparse`` still works and its ``csr_matvecs`` agrees."""
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        import repro, repro.kernels, repro.cpd, repro.exec, repro.dist
        from repro.kernels.base import fiber_sums, segment_sums_into, unit_csr
        loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not loaded, loaded
        import scipy.sparse
        rng = np.random.default_rng(0)
        indptr = np.r_[0, np.cumsum(rng.integers(0, 6, 30))]
        indices = rng.integers(0, 20, indptr[-1])
        S = scipy.sparse.csr_matrix(
            (rng.standard_normal(indptr[-1]), indices, indptr), shape=(30, 20)
        )
        X = rng.standard_normal((20, 5))
        [(_, _, ours)] = fiber_sums(S.indptr, S.indices, S.data, X, 20)
        theirs = np.zeros((30, 5))
        scipy.sparse._sparsetools.csr_matvecs(
            30, 20, 5, S.indptr, S.indices, S.data, X.ravel(), theirs.ravel()
        )
        assert np.array_equal(ours, theirs)
        np.testing.assert_allclose(ours, S @ X, rtol=1e-12, atol=1e-12)
        print("ok")
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
