"""Branch coverage for the report generator's suggestion logic."""

from repro.blocking import RankBlocking
from repro.kernels import get_kernel
from repro.machine import power8_socket
from repro.perf import performance_report
from repro.tensor import uniform_random_tensor


class TestSuggestionBranches:
    def test_stream_dominated_suggests_wider_strips(self):
        """Many narrow strips on a low-reuse tensor make re-streaming the
        dominant cost; the report must point at the strip count."""
        tensor = uniform_random_tensor((50, 60, 55), 60_000, seed=1)
        machine = power8_socket()  # huge caches: factor misses ~ 0
        plan = get_kernel("rankb").prepare(
            tensor, 0, rank_blocking=RankBlocking(block_cols=16)
        )
        report = performance_report(plan, 512, machine)
        joined = " ".join(report.suggestions)
        if report.breakdown.stream_time / report.breakdown.total > 0.4:
            assert "fewer/wider rank strips" in joined

    def test_load_dominated_suggests_register_blocking(self):
        tensor = uniform_random_tensor((50, 60, 55), 30_000, seed=2)
        machine = power8_socket()  # everything cached -> loads dominate
        plan = get_kernel("splatt").prepare(tensor, 0)
        report = performance_report(plan, 128, machine)
        assert report.breakdown.load_time / report.breakdown.total > 0.3
        assert any("register blocking" in s for s in report.suggestions)

    def test_no_bottleneck_fallback(self):
        tensor = uniform_random_tensor((30, 30, 30), 2000, seed=3)
        machine = power8_socket()
        plan = get_kernel("rankb").prepare(
            tensor, 0, rank_blocking=RankBlocking(n_blocks=1)
        )
        report = performance_report(plan, 16, machine)
        assert len(report.suggestions) >= 1


class TestCSFAnyStats:
    def test_block_stats_well_formed(self):
        from repro.machine import estimate_traffic

        tensor = uniform_random_tensor((20, 30, 25), 2000, seed=4)
        plan = get_kernel("csf-any").prepare(tensor, 1)
        stats = plan.block_stats()
        assert len(stats) == 1
        assert stats[0].nnz == tensor.nnz
        # And the machine model consumes the plan.
        est = estimate_traffic(plan, 32, power8_socket())
        assert est.read_bytes > 0
