"""Property-based tests for MTTKRP kernels (hypothesis).

The first group checks algebraic identities any correct MTTKRP must
satisfy, independent of the dense reference: linearity in the tensor
values and in the factors, additivity over tensor partitions, and
invariance of the blocked kernels to the block grid.  The second checks
every execution path (each registered kernel, serial and threaded, and
the distributed MTTKRP on both backends) against the dense einsum on
adversarial small tensors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import ProcessGrid, distributed_mttkrp, medium_grain_decompose
from repro.exec import ParallelExecutor
from repro.kernels import KERNELS, get_kernel, reference_mttkrp
from repro.machine import power8_socket
from repro.tensor import COOTensor


@st.composite
def mttkrp_problems(draw):
    """A small 3-mode tensor plus factors and a mode."""
    shape = tuple(draw(st.integers(2, 10)) for _ in range(3))
    nnz = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.stack(
        [rng.integers(0, s, nnz) for s in shape], axis=1
    )
    values = rng.standard_normal(nnz)
    tensor = COOTensor(shape, indices, values)
    rank = draw(st.integers(1, 6))
    factors = [rng.standard_normal((s, rank)) for s in shape]
    mode = draw(st.integers(0, 2))
    return tensor, factors, mode


@given(mttkrp_problems(), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_linearity_in_values(problem, scale):
    """MTTKRP(a*X) == a * MTTKRP(X)."""
    tensor, factors, mode = problem
    kernel = get_kernel("splatt")
    base = kernel.mttkrp(tensor, factors, mode)
    scaled_tensor = COOTensor(tensor.shape, tensor.indices, tensor.values * scale)
    scaled = kernel.mttkrp(scaled_tensor, factors, mode)
    np.testing.assert_allclose(scaled, scale * base, rtol=1e-9, atol=1e-9)


@given(mttkrp_problems())
@settings(max_examples=40, deadline=None)
def test_linearity_in_inner_factor(problem):
    """MTTKRP is linear in each non-output factor."""
    tensor, factors, mode = problem
    kernel = get_kernel("splatt")
    inner = (mode + 1) % 3
    f1 = [f.copy() for f in factors]
    f2 = [f.copy() for f in factors]
    rng = np.random.default_rng(0)
    f2[inner] = rng.standard_normal(f2[inner].shape)
    f_sum = [f.copy() for f in factors]
    f_sum[inner] = f1[inner] + f2[inner]
    out = kernel.mttkrp(tensor, f_sum, mode)
    expected = kernel.mttkrp(tensor, f1, mode) + kernel.mttkrp(tensor, f2, mode)
    np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)


@given(mttkrp_problems(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_additivity_over_partitions(problem, split_seed):
    """Splitting the nonzeros arbitrarily and summing the partial MTTKRPs
    recovers the whole — the identity every blocking scheme relies on."""
    tensor, factors, mode = problem
    kernel = get_kernel("coo")
    whole = kernel.mttkrp(tensor, factors, mode)
    rng = np.random.default_rng(split_seed)
    mask = rng.random(tensor.nnz) < 0.5
    part_a = tensor.filter(mask)
    part_b = tensor.filter(~mask)
    total = kernel.mttkrp(part_a, factors, mode) + kernel.mttkrp(
        part_b, factors, mode
    )
    np.testing.assert_allclose(total, whole, rtol=1e-9, atol=1e-9)


@given(
    mttkrp_problems(),
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
    st.integers(1, 4),
)
@settings(max_examples=40, deadline=None)
def test_blocking_invariance(problem, counts, n_rank_blocks):
    """Any valid block grid and strip count computes the same MTTKRP."""
    tensor, factors, mode = problem
    counts = tuple(min(c, s) for c, s in zip(counts, tensor.shape))
    rank = factors[0].shape[1]
    n_rank_blocks = min(n_rank_blocks, rank)
    base = get_kernel("splatt").mttkrp(tensor, factors, mode)
    blocked = get_kernel("mb+rankb").mttkrp(
        tensor, factors, mode, block_counts=counts, n_rank_blocks=n_rank_blocks
    )
    np.testing.assert_allclose(blocked, base, rtol=1e-9, atol=1e-9)


@given(mttkrp_problems())
@settings(max_examples=30, deadline=None)
def test_mode_permutation_consistency(problem):
    """Permuting tensor modes and the factor list permutes the MTTKRP."""
    tensor, factors, mode = problem
    kernel = get_kernel("splatt")
    base = kernel.mttkrp(tensor, factors, mode)
    perm = (2, 0, 1)
    permuted_tensor = tensor.permute_modes(perm)
    permuted_factors = [factors[p] for p in perm]
    new_mode = perm.index(mode)
    out = kernel.mttkrp(permuted_tensor, permuted_factors, new_mode)
    np.testing.assert_allclose(out, base, rtol=1e-9, atol=1e-9)


# ----------------------------------------------------------------------
# Every execution path against the dense oracle
# ----------------------------------------------------------------------
#: Kernels whose trees take any order; the rest are 3-mode.
ANY_ORDER = ("csf", "csf-blocked", "csf-any")
#: Registered kernels at collection time (every preset, every family).
KERNEL_NAMES = sorted(KERNELS)


def _kernel_params(draw, name, shape, rank):
    """Valid ``prepare`` parameters for one preset: a block grid no finer
    than the tensor, rank strips no more than the rank."""
    params: dict = {}
    if name in ("mb", "mb+rankb", "csf-blocked"):
        params["block_counts"] = tuple(draw(st.integers(1, s)) for s in shape)
    if name in ("rankb", "mb+rankb", "csf-blocked"):
        params["n_rank_blocks"] = draw(st.integers(1, rank))
    return params


@st.composite
def adversarial_problems(draw, orders=(3,)):
    """A small tensor with at least one nonzero, empty slices in every
    mode it can have them, often a rank above some mode length, and
    float32 or float64 values and factors."""
    order = draw(st.sampled_from(orders))
    shape = tuple(draw(st.integers(1, 5)) for _ in range(order))
    nnz = draw(st.sampled_from([1, 1, 2, 7, 30]))
    # Nonzeros land only on a drawn subset of each mode's slices.
    allowed = [
        np.asarray(draw(st.lists(st.integers(0, s - 1), min_size=1, unique=True)))
        for s in shape
    ]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.stack([rng.choice(a, nnz) for a in allowed], axis=1)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = rng.standard_normal(nnz).astype(dtype)
    rank = draw(st.integers(1, 8))
    factors = [rng.standard_normal((s, rank)).astype(dtype) for s in shape]
    mode = draw(st.integers(0, order - 1))
    return COOTensor(shape, indices, values), factors, mode


def assert_matches_oracle(got, tensor, factors, mode):
    """``got`` equals the float64 dense einsum to the rounding its dtype
    allows: per entry, (terms + order) * 4 eps of the sum of the absolute
    values of its terms, the forward-error bound of a summation."""
    dtype = factors[(mode + 1) % tensor.order].dtype
    assert got.dtype == dtype
    exact = COOTensor(tensor.shape, tensor.indices, tensor.values.astype(np.float64))
    wide = [f.astype(np.float64) for f in factors]
    want = reference_mttkrp(exact, wide, mode)
    magnitude = reference_mttkrp(
        COOTensor(exact.shape, exact.indices, np.abs(exact.values)),
        [np.abs(f) for f in wide],
        mode,
    )
    tol = 4 * (tensor.nnz + tensor.order) * np.finfo(dtype).eps
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * magnitude + np.finfo(dtype).tiny)


@pytest.mark.parametrize(
    "path",
    ["serial", pytest.param("thread", marks=pytest.mark.parallel_exec)],
)
@pytest.mark.parametrize("name", KERNEL_NAMES)
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_every_kernel_matches_dense_oracle(name, path, data):
    """Every registered kernel, serial and through the 2-thread executor,
    equals the dense einsum on adversarial small tensors (orders 4-5 for
    the CSF family)."""
    orders = (3, 4, 5) if name in ANY_ORDER else (3,)
    tensor, factors, mode = data.draw(adversarial_problems(orders))
    params = _kernel_params(data.draw, name, tensor.shape, factors[0].shape[1])
    if path == "serial":
        got = get_kernel(name).mttkrp(tensor, factors, mode, **params)
    else:
        with ParallelExecutor(n_threads=2, backend="thread") as executor:
            plan = executor.prepare(tensor, mode, kernel=name, **params)
            got = executor.execute(plan, factors)
    assert_matches_oracle(got, tensor, factors, mode)


def _dist_mttkrp(tensor, factors, mode, dims, rank_groups=1, backend="sim", **kw):
    decomp = medium_grain_decompose(tensor, ProcessGrid(dims), seed=3)
    return distributed_mttkrp(
        decomp, factors, mode, power8_socket(),
        rank_groups=rank_groups, backend=backend, **kw,
    ).output


@given(
    adversarial_problems(),
    st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2)),
    st.integers(1, 2),
    st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_distributed_sim_matches_dense_oracle(problem, dims, rank_groups, blocked):
    """The distributed MTTKRP (simulated ranks, 3D and 4D grids, with and
    without local blocking) equals the dense einsum."""
    tensor, factors, mode = problem
    # The decomposition permutes modes at random: no axis may outnumber
    # the shortest mode's slices (that is a DistributionError).
    dims = tuple(min(d, min(tensor.shape)) for d in dims)
    rank_groups = min(rank_groups, factors[0].shape[1])
    kw = {"local_block_counts": (2, 2, 2)} if blocked else {}
    got = _dist_mttkrp(tensor, factors, mode, dims, rank_groups, **kw)
    assert_matches_oracle(got, tensor, factors, mode)


#: Fixed adversarial cases for the process backend (it spawns one worker
#: per rank, so it is not run per Hypothesis example): one nonzero on a
#: 2-rank grid (one rank's block is empty), empty slices in every mode
#: with the rank above every mode length, and a float32 4D grid.
DIST_PROCESS_CASES = {
    "one-nonzero": (
        COOTensor((3, 4, 2), np.array([[2, 1, 1]]), np.array([1.5])),
        4, np.float64, 0, (2, 1, 1), 1,
    ),
    "empty-slices-rank-above-lengths": (
        COOTensor(
            (4, 5, 3),
            np.array([[0, 0, 0], [0, 4, 2], [3, 4, 0], [3, 0, 2], [0, 4, 0]]),
            np.array([1.0, -2.0, 0.5, 3.0, -1.25]),
        ),
        7, np.float64, 1, (2, 2, 1), 1,
    ),
    "float32-4d": (
        COOTensor(
            (5, 2, 4),
            np.array([[4, 1, 3], [0, 0, 0], [4, 0, 3], [2, 1, 1]]),
            np.array([0.25, -1.0, 2.0, 1.0], dtype=np.float32),
        ),
        6, np.float32, 2, (1, 2, 1), 2,
    ),
}


@pytest.mark.parallel_exec
@pytest.mark.parametrize("case", sorted(DIST_PROCESS_CASES))
def test_distributed_process_matches_dense_oracle(case):
    tensor, rank, dtype, mode, dims, rank_groups = DIST_PROCESS_CASES[case]
    rng = np.random.default_rng(17)
    factors = [rng.standard_normal((s, rank)).astype(dtype) for s in tensor.shape]
    got = _dist_mttkrp(
        tensor, factors, mode, dims, rank_groups, backend="process"
    )
    assert_matches_oracle(got, tensor, factors, mode)
