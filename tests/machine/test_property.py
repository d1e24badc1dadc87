"""Property-based tests for the machine models (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import get_kernel
from repro.machine import CacheLevel, MachineSpec, estimate_traffic
from repro.machine.cache import SetAssociativeCache
from repro.tensor import COOTensor


def fully_associative(n_lines: int, line: int = 64) -> SetAssociativeCache:
    return SetAssociativeCache(CacheLevel("FA", n_lines * line, line, n_lines))


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=300),
    st.integers(1, 16),
)
@settings(max_examples=50, deadline=None)
def test_lru_inclusion_property(trace, small_lines):
    """For fully-associative LRU, a larger cache hits on a superset of
    the accesses a smaller one hits on (the classic stack property)."""
    small = fully_associative(small_lines)
    big = fully_associative(small_lines * 2)
    small_hits = [small.access(a) for a in trace]
    big_hits = [big.access(a) for a in trace]
    for s_hit, b_hit in zip(small_hits, big_hits):
        if s_hit:
            assert b_hit


@given(st.lists(st.integers(0, 50), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_compulsory_lower_bound(trace):
    """Any cache misses at least once per distinct line."""
    cache = fully_associative(8)
    for a in trace:
        cache.access(a)
    assert cache.misses >= len(set(trace))
    assert cache.hits + cache.misses == len(trace)


@st.composite
def traffic_problems(draw):
    shape = tuple(draw(st.integers(3, 20)) for _ in range(3))
    nnz = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    indices = np.stack([rng.integers(0, s, nnz) for s in shape], axis=1)
    tensor = COOTensor(shape, indices, rng.random(nnz) + 0.5)
    rank = draw(st.sampled_from([1, 8, 32]))
    return tensor, rank


def machine_with(l2_kib: int, l3_kib: int) -> MachineSpec:
    return MachineSpec(
        name="prop",
        frequency_hz=1e9,
        caches=(
            CacheLevel("L1", 2 * 1024, 128, 2),
            CacheLevel("L2", l2_kib * 1024, 128, 8),
            CacheLevel("L3", l3_kib * 1024, 128, 8),
        ),
        read_bandwidth=1e9,
        write_bandwidth=1e9,
        flops_per_cycle=8,
        loadstore_per_cycle=2,
        vector_doubles=2,
        vector_registers=64,
    )


@given(traffic_problems())
@settings(max_examples=40, deadline=None)
def test_traffic_invariants(problem):
    """Misses bounded by accesses and below by distinct rows; alphas in
    [0, 1]; tiers nested."""
    tensor, rank = problem
    plan = get_kernel("splatt").prepare(tensor, 0)
    est = estimate_traffic(plan, rank, machine_with(4, 16))
    stats = plan.block_stats()[0]
    for s, d in ((est.b, stats.distinct_inner), (est.c, stats.distinct_fiber)):
        assert d - 1e-9 <= s.mem_misses <= s.accesses + 1e-9
        assert s.mem_misses <= s.fast_misses + 1e-9
        assert 0.0 <= s.alpha <= 1.0
        assert 0.0 <= s.fast_alpha <= 1.0


@given(traffic_problems())
@settings(max_examples=40, deadline=None)
def test_traffic_monotone_in_cache(problem):
    """More cache never increases modeled memory traffic."""
    tensor, rank = problem
    plan = get_kernel("splatt").prepare(tensor, 0)
    small = estimate_traffic(plan, rank, machine_with(2, 8))
    big = estimate_traffic(plan, rank, machine_with(64, 512))
    assert big.read_bytes <= small.read_bytes + 1e-6
    assert big.factor_alpha >= small.factor_alpha - 1e-12


@given(traffic_problems(), st.integers(2, 4))
@settings(max_examples=30, deadline=None)
def test_stream_traffic_scales_with_strips(problem, n_strips):
    """Rank strips multiply the stream bytes exactly."""
    tensor, rank = problem
    if rank < n_strips:
        return
    base_plan = get_kernel("splatt").prepare(tensor, 0)
    rb_plan = get_kernel("rankb").prepare(tensor, 0, n_rank_blocks=n_strips)
    m = machine_with(4, 16)
    base = estimate_traffic(base_plan, rank, m)
    rb = estimate_traffic(rb_plan, rank, m)
    actual_strips = rb_plan.rank_blocking.n_strips(rank)
    assert rb.stream_read_bytes == pytest.approx(
        actual_strips * base.stream_read_bytes
    )
