"""Tests for the load/store-instruction model."""

import pytest

from repro.kernels import get_kernel
from repro.machine import estimate_loads, power8
from repro.tensor import poisson_tensor


@pytest.fixture(scope="module")
def plan_pair():
    t = poisson_tensor((40, 60, 50), 5000, seed=5)
    base = get_kernel("splatt").prepare(t, 0)
    rb = get_kernel("rankb").prepare(t, 0, n_rank_blocks=1)
    return t, base, rb


class TestBaselineCounts:
    def test_closed_form(self, plan_pair):
        """Per nonzero: 2 + R/vw B + R/vw acc loads + R/vw acc stores;
        per fiber: 2 + R/vw C + R/vw A loads + R/vw A stores."""
        t, base, _ = plan_pair
        m = power8(1)
        rank = 64
        vec = rank // m.vector_doubles
        est = estimate_loads(base, rank, m)
        s = base.blocks[0].tree
        assert est.stream_loads == 2 * s.nnz + 2 * s.levels[-1].n_nodes
        assert est.b_loads == s.nnz * vec
        assert est.acc_loads == s.nnz * vec
        assert est.acc_stores == s.nnz * vec
        assert est.c_loads == s.levels[-1].n_nodes * vec
        assert est.a_loads == s.levels[-1].n_nodes * vec
        assert est.a_stores == s.levels[-1].n_nodes * vec
        assert est.loop_ops == s.nnz + s.levels[-1].n_nodes

    def test_totals_consistent(self, plan_pair):
        _, base, _ = plan_pair
        est = estimate_loads(base, 32, power8(1))
        assert est.total_ops == pytest.approx(est.loads + est.stores + est.loop_ops)


class TestRegisterBlocking:
    def test_accumulator_ops_eliminated(self, plan_pair):
        """Table I type 3 / Algorithm 2: register blocking removes the
        accumulator's memory micro-ops entirely."""
        _, base, rb = plan_pair
        m = power8(1)
        base_est = estimate_loads(base, 64, m)
        rb_est = estimate_loads(rb, 64, m)
        assert base_est.acc_loads > 0
        assert rb_est.acc_loads == 0
        assert rb_est.acc_stores == 0

    def test_stream_reread_per_register_block(self, plan_pair):
        """val/j_index are re-read once per register block pass."""
        _, base, rb = plan_pair
        m = power8(1)
        rank = 64  # 4 register blocks of 16
        base_est = estimate_loads(base, rank, m)
        rb_est = estimate_loads(rb, rank, m)
        s = base.blocks[0].tree
        assert rb_est.stream_loads == 4 * 2 * s.nnz + 2 * s.levels[-1].n_nodes

    def test_net_reduction(self, plan_pair):
        """Register blocking must reduce total micro-ops (the whole point)."""
        _, base, rb = plan_pair
        m = power8(1)
        assert (
            estimate_loads(rb, 128, m).total_ops
            < estimate_loads(base, 128, m).total_ops
        )

    def test_loop_ops_grow_with_strips(self, plan_pair):
        t, _, _ = plan_pair
        m = power8(1)
        one = get_kernel("rankb").prepare(t, 0, n_rank_blocks=1)
        four = get_kernel("rankb").prepare(t, 0, n_rank_blocks=4)
        assert (
            estimate_loads(four, 64, m).loop_ops
            == 4 * estimate_loads(one, 64, m).loop_ops
        )

    def test_b_loads_invariant_across_strip_counts(self, plan_pair):
        """Total B loads depend on R, not on how it is stripped."""
        t, _, _ = plan_pair
        m = power8(1)
        one = get_kernel("rankb").prepare(t, 0, n_rank_blocks=1)
        four = get_kernel("rankb").prepare(t, 0, n_rank_blocks=4)
        assert estimate_loads(one, 64, m).b_loads == pytest.approx(
            estimate_loads(four, 64, m).b_loads
        )
