"""The instrumentation hooks: kernels, the parallel executor, the tuner,
and the CPD drivers, each recording through one activated tracer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import get_kernel
from repro.obs import Tracer, use_tracer
from repro.tensor import poisson_tensor

RANK = 8


@pytest.fixture
def tensor():
    return poisson_tensor((15, 20, 18), 900, seed=3)


@pytest.fixture
def factors(tensor):
    rng = np.random.default_rng(11)
    return [rng.standard_normal((n, RANK)) for n in tensor.shape]


#: prepare() parameters per registry name: 2x2x2 grids exercise the block
#: loops, and 2 rank blocks at rank 8 give two 4-column strips.
KERNEL_PARAMS: dict[str, dict] = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {"mode_order": (0, 1, 2)},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
}


#: The counters one traced ``Kernel.execute`` emits.
KERNEL_COUNTERS = {
    "kernel.calls",
    "kernel.nonzeros",
    "kernel.fibers",
    "kernel.gathers",
    "kernel.factor_bytes",
}


class TestKernelHook:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
    def test_execute_records_span_and_counters(self, tensor, factors, name, dtype):
        """The span and the exact ``kernel.*`` counters, checked against
        the traffic model's gather counts (``predicted_footprint``)."""
        from repro.machine.traffic import predicted_footprint

        kern = get_kernel(name)
        plan = kern.prepare(tensor, 0, **KERNEL_PARAMS[name])
        tracer = Tracer()
        with use_tracer(tracer):
            kern.execute(plan, [f.astype(dtype) for f in factors])
        (span,) = tracer.spans_named("mttkrp")
        assert span.meta["kernel"] == name
        assert span.meta["mode"] == 0
        assert span.meta["nnz"] == tensor.nnz
        assert tracer.counters["kernel.calls"] == 1
        assert tracer.counters["kernel.nonzeros"] == tensor.nnz
        # Every strip gathers one B row per nonzero and one C row per
        # fiber; the counter reports one strip's worth (strip widths sum
        # to R, so the byte count below is strip-invariant).
        fp = predicted_footprint(plan, RANK)
        gathers = tracer.counters["kernel.gathers"]
        assert gathers * fp.n_strips == fp.b_accesses + fp.c_accesses
        distinct_out = sum(b.distinct_out for b in plan.block_stats())
        itemsize = np.dtype(dtype).itemsize
        assert tracer.counters["kernel.factor_bytes"] == (
            (gathers + distinct_out) * RANK * itemsize
        )
        # Emission is per call: one span and the five per-call counters,
        # nothing per block, strip, row or nonzero.
        assert set(tracer.counters) == KERNEL_COUNTERS
        assert tracer.span_counts() == {"mttkrp": 1}

    def test_every_registered_kernel_is_instrumented(self):
        """The span and counter test above runs every registered kernel
        (each one's ``execute`` is the base one: ``tests/kernels/
        test_registry.py``)."""
        from repro.kernels.base import KERNELS

        assert set(KERNELS) <= set(KERNEL_PARAMS)

    def test_disabled_records_nothing_and_result_identical(self, tensor, factors):
        kern = get_kernel("splatt")
        plan = kern.prepare(tensor, 0)
        tracer = Tracer()
        with use_tracer(tracer):
            traced = kern.execute(plan, factors)
        untraced = kern.execute(plan, factors)
        np.testing.assert_array_equal(traced, untraced)
        # Nothing recorded outside the use_tracer block.
        assert len(tracer.spans_named("mttkrp")) == 1


@pytest.mark.parallel_exec
class TestExecutorHook:
    def test_worker_spans_nest_under_parallel(self, tensor, factors):
        from repro.exec import ParallelExecutor

        executor = ParallelExecutor(n_threads=2, backend="thread")
        pplan = executor.prepare(tensor, 0, "splatt")
        tracer = Tracer()
        with use_tracer(tracer):
            result = executor.execute(pplan, factors)
        (parallel,) = tracer.spans_named("exec.parallel")
        assert parallel.meta["n_workers"] == len(pplan.tasks)
        workers = tracer.spans_named("exec.worker")
        assert len(workers) == len(pplan.tasks)
        assert {w.meta["worker"] for w in workers} == set(
            range(len(pplan.tasks))
        )
        # Worker wall-clock on the trace matches the ExecutionReport.
        report = executor.last_report
        by_worker = {w.meta["worker"]: w.meta["wall_s"] for w in workers}
        for idx, t in enumerate(report.thread_times_s):
            assert by_worker[idx] == pytest.approx(t, rel=0.5, abs=0.05)
        assert tracer.counters["exec.workers"] == len(pplan.tasks)
        assert np.isfinite(result).all()

    @pytest.mark.parametrize("kernel", ["splatt", "mb"])
    def test_prepare_records_one_span(self, tensor, kernel):
        from repro.exec import ParallelExecutor

        executor = ParallelExecutor(n_threads=2, backend="serial")
        params = {"block_counts": (2, 2, 2)} if kernel == "mb" else {}
        tracer = Tracer()
        with use_tracer(tracer):
            pplans = [executor.prepare(tensor, m, kernel, **params) for m in (0, 2)]
        assert tracer.span_counts() == {"exec.prepare": 2}
        for span, pplan in zip(tracer.spans_named("exec.prepare"), pplans):
            assert span.meta == {
                "kernel": kernel,
                "nnz": tensor.nnz,
                "mode": pplan.mode,
                "n_tasks": len(pplan.tasks),
            }
        # Disabled tracer: prepare records nothing.
        executor.prepare(tensor, 1, kernel, **params)
        assert tracer.span_counts() == {"exec.prepare": 2}


class TestTunerHook:
    def test_cache_hit_miss_counters(self, tensor):
        from repro.machine import power8_socket
        from repro.tune import Tuner, TuningCache

        cache = TuningCache()
        tracer = Tracer()
        with use_tracer(tracer):
            tuner = Tuner(tensor, 0, power8_socket(), cache=cache)
            tuner.get_or_tune(RANK)
            tuner.get_or_tune(RANK)
        assert tracer.counters["tune.cache_misses"] == 1
        assert tracer.counters["tune.cache_hits"] == 1
        assert tracer.counters["tune.evaluations"] >= 1
        outcomes = [
            s.meta.get("cache") for s in tracer.spans_named("tune.get_or_tune")
        ]
        assert outcomes == ["miss", "hit"]
        assert len(tracer.spans_named("tune.evaluate")) >= 1


class TestCPDHooks:
    def test_cp_als_iteration_spans_and_fit_metrics(self, tensor):
        from repro.cpd import cp_als

        tracer = Tracer()
        with use_tracer(tracer):
            res = cp_als(tensor, RANK, n_iters=3, seed=0)
        iters = tracer.spans_named("als.iteration")
        assert len(iters) == res.n_iters
        # One mttkrp span per mode per iteration (serial path).
        assert len(tracer.spans_named("mttkrp")) == 3 * res.n_iters
        fits = [p for p in tracer.metrics if p.name == "als.fit"]
        assert [p.step for p in fits] == list(range(1, res.n_iters + 1))
        assert fits[-1].value == pytest.approx(res.final_fit)

    @pytest.mark.parallel_exec
    def test_cp_als_threaded_trace_has_worker_spans(self, tensor):
        from repro.cpd import cp_als

        tracer = Tracer()
        with use_tracer(tracer):
            res = cp_als(tensor, RANK, n_iters=2, seed=0, n_threads=2)
        assert len(tracer.spans_named("als.iteration")) == res.n_iters
        # One exec.parallel (mode-level) span per mode per iteration...
        assert len(tracer.spans_named("exec.parallel")) == 3 * res.n_iters
        # ...with per-worker spans underneath.
        assert len(tracer.spans_named("exec.worker")) >= 3 * res.n_iters


class _CallCountingTracer(Tracer):
    """Also records how many times each counter is bumped, which the
    accumulated value alone cannot show."""

    def __init__(self) -> None:
        super().__init__()
        self.count_calls: dict[str, int] = {}

    def count(self, name: str, value: float = 1) -> None:
        super().count(name, value)
        with self._lock:
            self.count_calls[name] = self.count_calls.get(name, 0) + 1


def _run_als_path(path: str, tensor) -> _CallCountingTracer:
    from repro.cpd import cp_als
    from repro.dist import ProcessGrid, distributed_cp_als
    from repro.machine import power8_socket

    tracer = _CallCountingTracer()
    with use_tracer(tracer):
        if path == "dist-sim":
            distributed_cp_als(
                tensor,
                RANK,
                ProcessGrid((2, 1, 1)),
                power8_socket(),
                n_iters=1,
                tol=0.0,
                seed=0,
            )
        else:
            n_threads = 2 if path == "threads" else 1
            cp_als(tensor, RANK, n_iters=1, tol=0.0, seed=0, n_threads=n_threads)
    return tracer


class TestEmissionScale:
    @pytest.mark.parametrize(
        "path",
        ["serial", pytest.param("threads", marks=pytest.mark.parallel_exec), "dist-sim"],
    )
    def test_als_emission_does_not_scale_with_nnz(self, path):
        """One ALS iteration emits the same spans and counter calls on a
        tensor with 4x the nonzeros (and 2x every mode length): tracer
        emission sits at per-call granularity everywhere on the path."""
        from repro.obs import COUNTER_UNITS
        from repro.tensor import uniform_random_tensor

        small = uniform_random_tensor((12, 16, 14), 300, seed=3)
        large = uniform_random_tensor((24, 32, 28), 1200, seed=3)
        assert large.nnz >= 4 * small.nnz
        traces = [_run_als_path(path, t) for t in (small, large)]
        assert traces[0].span_counts() == traces[1].span_counts()
        assert set(traces[0].counters) == set(traces[1].counters)
        assert traces[0].count_calls == traces[1].count_calls
        # Every counter on the path is a documented one.
        assert set(traces[0].counters) <= set(COUNTER_UNITS)
