"""Trace generation tests + validation of the analytic traffic model
against the exact LRU simulator — the core soundness check of the
machine-model substitution (DESIGN.md §2)."""

import pytest

from repro.kernels import get_kernel
from repro.machine import (
    STRUCTURES,
    CacheHierarchy,
    CacheLevel,
    MachineSpec,
    estimate_traffic,
    mttkrp_trace,
)
from repro.tensor import poisson_tensor


def small_machine(l2_kib=16, l3_kib=64):
    """A machine small enough that a modest tensor stresses it."""
    return MachineSpec(
        name="small",
        frequency_hz=1e9,
        caches=(
            CacheLevel("L1", 4 * 1024, 128, 4),
            CacheLevel("L2", l2_kib * 1024, 128, 8),
            CacheLevel("L3", l3_kib * 1024, 128, 8),
        ),
        read_bandwidth=10e9,
        write_bandwidth=5e9,
        flops_per_cycle=8,
        loadstore_per_cycle=2,
        vector_doubles=2,
        vector_registers=64,
    )


@pytest.fixture(scope="module")
def tensor():
    return poisson_tensor((120, 150, 130), 20_000, seed=99, concentration=0.2)


class TestTraceGeneration:
    def test_trace_length_formula(self, tensor):
        """nnz*(2 + rowlines) + F*(1 + 2*rowlines) accesses per phase."""
        plan = get_kernel("splatt").prepare(tensor, 0)
        m = small_machine()
        rank = 32  # rowlines = ceil(32*8/128) = 2
        lines, tags = mttkrp_trace(plan, rank, m)
        s = plan.blocks[0].tree
        expected = s.nnz * (2 + 2) + s.levels[-1].n_nodes * (1 + 4)
        assert lines.shape == tags.shape == (expected,)

    def test_structure_mix(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        lines, tags = mttkrp_trace(plan, 16, small_machine())
        s = plan.blocks[0].tree
        counts = {k: int((tags == sid).sum()) for k, sid in STRUCTURES.items()}
        assert counts["val"] == s.nnz
        assert counts["jidx"] == s.nnz
        assert counts["B"] == s.nnz  # one line per row at rank 16
        assert counts["fiber"] == s.levels[-1].n_nodes
        assert counts["C"] == counts["A"] == s.levels[-1].n_nodes

    def test_regions_disjoint(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        lines, tags = mttkrp_trace(plan, 16, small_machine())
        for a in STRUCTURES.values():
            for b in STRUCTURES.values():
                if a < b:
                    la = set(lines[tags == a][:500].tolist())
                    lb = set(lines[tags == b][:500].tolist())
                    assert not la & lb

    def test_rank_strips_multiply_stream(self, tensor):
        base_plan = get_kernel("splatt").prepare(tensor, 0)
        rb_plan = get_kernel("rankb").prepare(tensor, 0, n_rank_blocks=4)
        m = small_machine()
        lines1, tags1 = mttkrp_trace(base_plan, 64, m)
        lines4, tags4 = mttkrp_trace(rb_plan, 64, m)
        # val accesses: nnz per strip.
        n1 = int((tags1 == STRUCTURES["val"]).sum())
        n4 = int((tags4 == STRUCTURES["val"]).sum())
        assert n4 == 4 * n1

    def test_blocked_trace_covers_all_nonzeros(self, tensor):
        plan = get_kernel("mb").prepare(tensor, 0, block_counts=(2, 3, 2))
        lines, tags = mttkrp_trace(plan, 16, small_machine())
        assert int((tags == STRUCTURES["val"]).sum()) == tensor.nnz


class TestAnalyticVsExact:
    """The analytic model must track the exact simulator's per-structure
    hit rates.  Tolerances are loose — the analytic model ignores set
    conflicts and stream-induced evictions — but the *direction* of every
    blocking effect must agree."""

    @pytest.mark.parametrize("rank", [16, 64])
    def test_b_alpha_close(self, tensor, rank):
        plan = get_kernel("splatt").prepare(tensor, 0)
        m = small_machine()
        lines, tags = mttkrp_trace(plan, rank, m)
        exact = CacheHierarchy(m).run_trace(lines, tags)
        analytic = estimate_traffic(plan, rank, m)
        exact_alpha = exact.structure_hit_rate(STRUCTURES["B"])
        assert analytic.b.alpha == pytest.approx(exact_alpha, abs=0.15)

    def test_blocking_improves_both(self, tensor):
        """MB blocking must raise the B hit rate in both models (memory
        hit rate in the exact simulator, fast-tier hit rate in the
        analytic model — with blocks sized for L2, that is the tier the
        blocking targets)."""
        m = small_machine(l2_kib=8, l3_kib=16)
        rank = 64
        base = get_kernel("splatt").prepare(tensor, 0)
        blocked = get_kernel("mb").prepare(tensor, 0, block_counts=(1, 5, 3))

        h = CacheHierarchy(m)
        exact_base = h.run_trace(*mttkrp_trace(base, rank, m))
        exact_blk = h.run_trace(*mttkrp_trace(blocked, rank, m))
        ana_base = estimate_traffic(base, rank, m)
        ana_blk = estimate_traffic(blocked, rank, m)

        b = STRUCTURES["B"]
        assert exact_blk.structure_hit_rate(b) > exact_base.structure_hit_rate(b)
        assert ana_blk.b.alpha > ana_base.b.alpha
        assert ana_blk.b.fast_alpha > ana_base.b.fast_alpha

    def test_rank_blocking_improves_both(self, tensor):
        m = small_machine(l2_kib=8, l3_kib=32)
        rank = 128
        base = get_kernel("splatt").prepare(tensor, 0)
        rb = get_kernel("rankb").prepare(tensor, 0, n_rank_blocks=8)

        h = CacheHierarchy(m)
        exact_base = h.run_trace(*mttkrp_trace(base, rank, m))
        exact_rb = h.run_trace(*mttkrp_trace(rb, rank, m))
        ana_base = estimate_traffic(base, rank, m)
        ana_rb = estimate_traffic(rb, rank, m)

        b = STRUCTURES["B"]
        assert exact_rb.structure_hit_rate(b) > exact_base.structure_hit_rate(b)
        assert ana_rb.b.alpha > ana_base.b.alpha


class TestTrafficModel:
    def test_stream_bytes_exact(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        est = estimate_traffic(plan, 32, small_machine())
        s = plan.blocks[0].tree
        assert est.stream_read_bytes == 16 * s.nnz + 16 * s.levels[-1].n_nodes

    def test_everything_fits_only_compulsory(self, tensor):
        """With a huge cache, misses are exactly the distinct rows."""
        m = small_machine(l2_kib=1 << 14, l3_kib=1 << 15)  # 16 MiB L2
        plan = get_kernel("splatt").prepare(tensor, 0)
        est = estimate_traffic(plan, 16, m)
        stats = plan.block_stats()[0]
        assert est.b.mem_misses == pytest.approx(stats.distinct_inner)
        assert est.c.mem_misses == pytest.approx(stats.distinct_fiber)
        assert est.b.fast_misses == pytest.approx(stats.distinct_inner)

    def test_alpha_increases_with_cache(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        small = estimate_traffic(plan, 128, small_machine(l2_kib=8, l3_kib=16))
        big = estimate_traffic(plan, 128, small_machine(l2_kib=256, l3_kib=1024))
        assert big.factor_alpha > small.factor_alpha

    def test_line_granularity_floor(self, tensor):
        """A rank-1 row still moves a whole 128-byte line per miss."""
        plan = get_kernel("splatt").prepare(tensor, 0)
        est = estimate_traffic(plan, 1, small_machine())
        assert est.b.read_bytes >= est.b.mem_misses * 128

    def test_mem_misses_bounded_by_fast_misses(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        est = estimate_traffic(plan, 64, small_machine())
        for s in (est.b, est.c, est.a):
            assert s.mem_misses <= s.fast_misses + 1e-9
            assert s.fast_misses <= s.accesses + 1e-9

    def test_uniform_fallback_without_histograms(self):
        """BlockStats without count arrays uses the proportional model."""
        from repro.kernels.base import BlockStats
        from repro.machine.traffic import _PhaseProfile, _phase_traffic

        stats = BlockStats(
            coords=(0, 0, 0),
            nnz=10_000,
            n_fibers=2_000,
            distinct_out=100,
            distinct_inner=500,
            distinct_fiber=200,
        )
        profile = _PhaseProfile(stats)
        assert profile.uniform
        b, c, a = _phase_traffic(profile, 512.0, small_machine())
        assert b.mem_misses >= stats.distinct_inner
        assert b.accesses == stats.nnz
