"""Tests for the intra-socket parallel execution model."""

import pytest

from repro.machine import power8
from repro.perf import (
    parallel_predict_time,
    partition_rows,
    per_thread_machine,
)
from repro.tensor import power_law_tensor, uniform_random_tensor


@pytest.fixture(scope="module")
def tensor():
    return uniform_random_tensor((200, 150, 120), 30_000, seed=81)


CORE = power8(1).scaled(1.0 / 64.0)


class TestPerThreadMachine:
    def test_one_thread_unchanged(self):
        assert per_thread_machine(CORE, 1, socket_read_bandwidth=75e9) is CORE

    def test_bandwidth_capped_at_scale(self):
        m = per_thread_machine(CORE, 10, socket_read_bandwidth=75e9)
        assert m.read_bandwidth == pytest.approx(7.5e9)
        assert m.flops_per_cycle == CORE.flops_per_cycle  # private resource

    def test_core_cap_binds_at_low_counts(self):
        m = per_thread_machine(CORE, 2, socket_read_bandwidth=75e9)
        assert m.read_bandwidth == CORE.read_bandwidth


class TestPartition:
    def test_boundaries_cover(self, tensor):
        ranges = partition_rows(tensor, 0, 8)
        assert ranges[0][0] == 0 and ranges[-1][1] == tensor.shape[0]
        assert len(ranges) == 8
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))

    def test_balanced_on_uniform(self, tensor):
        counts = tensor.slice_nnz(0)
        loads = [counts[lo:hi].sum() for lo, hi in partition_rows(tensor, 0, 4)]
        assert max(loads) / (sum(loads) / 4) < 1.2


class TestParallelTime:
    def test_nnz_conserved(self, tensor):
        est = parallel_predict_time(tensor, 0, 64, CORE, 4)
        assert sum(est.thread_nnz) == tensor.nnz
        assert len(est.thread_times) == 4

    def test_threads_speed_things_up(self, tensor):
        one = parallel_predict_time(tensor, 0, 64, CORE, 1)
        four = parallel_predict_time(tensor, 0, 64, CORE, 4)
        assert four.makespan < one.makespan

    def test_bandwidth_saturation_bends_scaling(self, tensor):
        """Beyond the socket saturation point, extra threads gain less
        than linearly."""
        base = parallel_predict_time(tensor, 0, 64, CORE, 1).makespan
        s = {
            t: base / parallel_predict_time(tensor, 0, 64, CORE, t).makespan
            for t in (2, 4, 16)
        }
        assert s[2] > 1.5  # near-linear early
        assert s[16] < 16 * 0.8  # saturated late
        assert s[16] >= s[4] * 0.9  # but not worse

    def test_imbalance_on_skewed_data(self):
        skewed = power_law_tensor((64, 100, 100), 20_000, alphas=(2.5, 0.3, 0.3), seed=82)
        est = parallel_predict_time(skewed, 0, 64, CORE, 8)
        assert est.imbalance > 1.05

    def test_thread_count_capped_by_extent(self):
        t = uniform_random_tensor((3, 40, 40), 500, seed=83)
        est = parallel_predict_time(t, 0, 16, CORE, 16)
        assert len(est.thread_times) == 3

    def test_blocked_config_supported(self, tensor):
        est = parallel_predict_time(
            tensor, 0, 128, CORE, 4, block_counts=(1, 4, 2)
        )
        assert est.makespan > 0
