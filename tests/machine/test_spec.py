"""Tests for the machine specification."""

import pytest

from repro.machine import CacheLevel, power8, power8_socket
from repro.util.errors import ReproError


class TestCacheLevel:
    def test_derived_geometry(self):
        c = CacheLevel("L1", 64 * 1024, 128, 8)
        assert c.n_lines == 512
        assert c.n_sets == 64

    def test_capacity_granularity_checked(self):
        with pytest.raises(ReproError):
            CacheLevel("L1", 1000, 128, 8)

    @pytest.mark.parametrize("cap,line,assoc", [(0, 128, 8), (1024, 0, 8), (1024, 128, 0)])
    def test_positive_fields(self, cap, line, assoc):
        with pytest.raises(ReproError):
            CacheLevel("x", cap, line, assoc)


class TestPower8:
    def test_paper_figures(self):
        """Section VI-A: 3.49 GHz, 64 KB L1 / 512 KB L2 per core, two
        128-bit FMA issues per cycle, 75/35 GB/s per socket."""
        m = power8_socket()
        assert m.frequency_hz == pytest.approx(3.49e9)
        assert m.caches[0].capacity_bytes == 64 * 1024 * 10
        assert m.caches[1].capacity_bytes == 512 * 1024 * 10
        assert m.line_bytes == 128
        assert m.read_bandwidth == pytest.approx(75e9)
        assert m.write_bandwidth == pytest.approx(35e9)
        assert m.peak_flops == pytest.approx(3.49e9 * 80)

    def test_single_core_bandwidth_capped(self):
        """One core cannot pull the whole socket's bandwidth."""
        assert power8(1).read_bandwidth < power8_socket().read_bandwidth

    def test_system_balance_in_paper_range(self):
        """The paper cites system balances of 6-12 for current CPUs."""
        m = power8_socket()
        assert 2.0 < m.system_balance < 15.0

    def test_fast_tier_is_l2(self):
        m = power8_socket()
        assert m.fast_cache_bytes == m.caches[-2].capacity_bytes
        assert m.effective_cache_bytes == m.caches[-1].capacity_bytes

    def test_l3_bandwidth_default(self):
        m = power8(1)
        assert m.l3_bandwidth == pytest.approx(2.0 * m.read_bandwidth)


class TestScaling:
    def test_caches_scale_rates_do_not(self):
        m = power8_socket()
        s = m.scaled(1.0 / 16.0)
        assert s.caches[1].capacity_bytes == pytest.approx(
            m.caches[1].capacity_bytes / 16, rel=0.05
        )
        assert s.read_bandwidth == m.read_bandwidth
        assert s.peak_flops == m.peak_flops

    def test_scale_one_is_identity(self):
        m = power8(1)
        assert m.scaled(1.0) is m

    def test_grain_respected(self):
        s = power8(1).scaled(1.0 / 512.0)
        for c in s.caches:
            assert c.capacity_bytes % (c.line_bytes * c.associativity) == 0
            assert c.capacity_bytes >= c.line_bytes * c.associativity

    def test_bad_factor(self):
        with pytest.raises(ReproError):
            power8(1).scaled(0.0)
        with pytest.raises(ReproError):
            power8(1).scaled(2.0)

    def test_describe_mentions_name(self):
        assert "POWER8" in power8(2).describe()
