"""Tests for the execution-time model and its heuristic evaluator."""

import pytest

from repro.blocking import RankBlocking, select_blocking
from repro.kernels import get_kernel
from repro.machine import power8_socket
from repro.perf import (
    ConfigPlanner,
    predict_time,
    predict_time_for_config,
    prepare_plan,
)
from repro.perf.model import mttkrp_flops
from repro.tensor import poisson_tensor


@pytest.fixture(scope="module")
def tensor():
    return poisson_tensor((150, 400, 200), 60_000, seed=77, concentration=0.2)


@pytest.fixture(scope="module")
def machine():
    return power8_socket().scaled(1.0 / 64.0)


class TestTimeBreakdown:
    def test_total_is_additive(self, tensor, machine):
        plan = get_kernel("splatt").prepare(tensor, 0)
        tb = predict_time(plan, 64, machine)
        assert tb.total == pytest.approx(sum(tb.components().values()))
        assert all(v >= 0 for v in tb.components().values())

    def test_components_named(self, tensor, machine):
        plan = get_kernel("splatt").prepare(tensor, 0)
        comps = predict_time(plan, 64, machine).components()
        assert set(comps) == {
            "stream",
            "B",
            "C",
            "A_read",
            "A_write",
            "load_units",
            "flops",
        }

    def test_time_grows_with_rank(self, tensor, machine):
        plan = get_kernel("splatt").prepare(tensor, 0)
        times = [predict_time(plan, r, machine).total for r in (16, 64, 256)]
        assert times == sorted(times)

    def test_memory_bound_regime(self, tensor, machine):
        """At realistic sizes the memory + load terms dominate flops —
        the paper's Section IV conclusion."""
        plan = get_kernel("splatt").prepare(tensor, 0)
        tb = predict_time(plan, 128, machine)
        assert tb.flop_time < 0.5 * (tb.memory_time + tb.load_time)

    def test_flops_equation2(self, tensor):
        plan = get_kernel("splatt").prepare(tensor, 0)
        s = plan.blocks[0].tree
        assert mttkrp_flops(plan, 32) == pytest.approx(2 * 32 * (s.nnz + s.levels[-1].n_nodes))

    def test_blocked_plan_charges_split_fibers(self, tensor):
        base = get_kernel("splatt").prepare(tensor, 0)
        blocked = get_kernel("mb").prepare(tensor, 0, block_counts=(1, 8, 1))
        assert mttkrp_flops(blocked, 32) >= mttkrp_flops(base, 32)


class TestBlockingEffects:
    def test_register_blocking_cuts_load_time(self, tensor, machine):
        base = predict_time_for_config(tensor, 0, 128, machine)
        rb = predict_time_for_config(
            tensor, 0, 128, machine, None, RankBlocking(n_blocks=1)
        )
        assert rb.load_time < base.load_time

    def test_non_restacked_strips_pay_gather_penalty(self, tensor, machine):
        fast = predict_time_for_config(
            tensor, 0, 128, machine, None, RankBlocking(n_blocks=4, restack=True)
        )
        slow = predict_time_for_config(
            tensor, 0, 128, machine, None, RankBlocking(n_blocks=4, restack=False)
        )
        assert slow.total > fast.total

    def test_many_strips_raise_stream_time(self, tensor, machine):
        few = predict_time_for_config(
            tensor, 0, 512, machine, None, RankBlocking(n_blocks=2)
        )
        many = predict_time_for_config(
            tensor, 0, 512, machine, None, RankBlocking(n_blocks=32)
        )
        assert many.stream_time > few.stream_time

    def test_mb_blocking_reduces_b_time_when_thrashing(self, tensor, machine):
        base = predict_time_for_config(tensor, 0, 512, machine)
        blocked = predict_time_for_config(tensor, 0, 512, machine, (1, 8, 1))
        assert blocked.b_time < base.b_time


class TestPreparePlan:
    def test_dispatch(self, tensor):
        assert prepare_plan(tensor, 0).kernel_name == "splatt"
        assert prepare_plan(tensor, 0, (2, 2, 2)).kernel_name == "mb"
        assert (
            prepare_plan(tensor, 0, None, RankBlocking(n_blocks=2)).kernel_name
            == "rankb"
        )
        assert (
            prepare_plan(tensor, 0, (2, 2, 2), RankBlocking(n_blocks=2)).kernel_name
            == "mb+rankb"
        )


class TestModelEvaluator:
    def test_heuristic_integration(self, tensor, machine):
        """The Section V-C search driven by the model must find a config
        at least as good as the baseline."""
        evaluate = ConfigPlanner(tensor, 0).evaluator(256, machine)
        choice = select_blocking(tensor, 0, 256, evaluate)
        assert choice.cost <= evaluate(None, None)

    def test_evaluator_caching(self, tensor, machine):
        planner = ConfigPlanner(tensor, 0)
        evaluate = planner.evaluator(64, machine)
        a = evaluate(None, None)
        b = evaluate(None, None)
        assert a == b
        assert planner.plan_for(None, None) is planner.plan_for(None, None)

    def test_evaluator_matches_predict(self, tensor, machine):
        evaluate = ConfigPlanner(tensor, 0).evaluator(64, machine)
        assert evaluate((2, 2, 2), None) == pytest.approx(
            predict_time_for_config(tensor, 0, 64, machine, (2, 2, 2)).total
        )
