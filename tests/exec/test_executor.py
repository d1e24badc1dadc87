"""The shared-memory parallel executor: serial equivalence for every
registered kernel, schedule vetting, determinism across thread counts,
and the backend set.

The ``parallel_exec`` marker tags every test that may spawn worker
threads; constrained CI legs deselect them and re-run with
``REPRO_EXEC_THREADS=1`` (which drops the executor to its inline path).
"""

import os

import numpy as np
import pytest

from repro.exec import (
    BACKENDS,
    ExecutionReport,
    ParallelExecutor,
    ParallelPlan,
    parallel_mttkrp,
)
from repro.kernels import get_kernel, reference_mttkrp
from repro.tensor import poisson_tensor
from repro.util.errors import ConfigError, ScheduleError

#: CI knob: the 3.10 leg re-runs these tests with this set to 1, which
#: keeps every schedule on the executor's inline (no worker) path.
MAX_THREADS = max(1, int(os.environ.get("REPRO_EXEC_THREADS", "4")))

KERNEL_PARAMS = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {},
    "csf-blocked": {"block_counts": (3, 2, 2)},
    "mb": {"block_counts": (2, 3, 2)},
    "rankb": {"n_rank_blocks": 3},
    "mb+rankb": {"block_counts": (2, 2, 3), "n_rank_blocks": 2},
}


def _threads(n: int) -> int:
    return min(n, MAX_THREADS)


@pytest.fixture(scope="module")
def problem():
    t = poisson_tensor((24, 30, 27), 2500, seed=91)
    rng = np.random.default_rng(92)
    factors = [rng.standard_normal((n, 12)) for n in t.shape]
    return t, factors


pytestmark = pytest.mark.parallel_exec


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("mode", [0, 1, 2])
def test_bitwise_equal_to_serial(problem, kernel_name, mode):
    """Float64 parallel results are *bitwise* identical to the serial
    kernel: each worker's reduction order is a subsequence of serial."""
    t, factors = problem
    serial = get_kernel(kernel_name).mttkrp(
        t, factors, mode, **KERNEL_PARAMS[kernel_name]
    )
    ex = ParallelExecutor(n_threads=_threads(3))
    pplan = ex.prepare(t, mode, kernel_name, **KERNEL_PARAMS[kernel_name])
    got = ex.execute(pplan, factors)
    assert got.dtype == serial.dtype
    np.testing.assert_array_equal(got, serial)


@pytest.mark.parametrize("kernel_name", sorted(KERNEL_PARAMS))
def test_float32_matches_reference(problem, kernel_name):
    t, factors = problem
    f32 = [f.astype(np.float32) for f in factors]
    ref = reference_mttkrp(t, factors, 0)
    got = parallel_mttkrp(
        t, f32, 0, kernel_name, n_threads=_threads(2),
        **KERNEL_PARAMS[kernel_name],
    )
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, ref, rtol=2e-4, atol=2e-4)


@pytest.mark.parametrize("n_threads", [1, 2, 3, 5])
def test_deterministic_across_thread_counts(problem, n_threads):
    """Any thread count produces the same bits as one thread."""
    t, factors = problem
    one = parallel_mttkrp(t, factors, 0, "splatt", n_threads=1)
    many = parallel_mttkrp(
        t, factors, 0, "splatt", n_threads=_threads(n_threads)
    )
    np.testing.assert_array_equal(one, many)


def _patch_partition(monkeypatch, boundaries):
    """Make the greedy slice partition (below the launch gate) return
    ``boundaries`` whatever it is asked for."""
    import repro.perf.parallel as parallel_mod

    monkeypatch.setattr(
        parallel_mod, "greedy_slice_partition", lambda *a: np.array(boundaries)
    )


def test_overlapping_ranges_rejected(problem, monkeypatch):
    """The launch gate: a partition whose worker row ranges overlap is
    refused before any sub-plan is built."""
    t, _ = problem
    _patch_partition(monkeypatch, [0, 14, 10, 24])
    ex = ParallelExecutor(n_threads=3)
    with pytest.raises(ScheduleError, match=r"PL402 .*\[10, 14\) are covered more"):
        ex.prepare(t, 0, "splatt")


def test_gapped_ranges_rejected(problem, monkeypatch):
    """A partition that leaves output rows 20-23 to no worker would
    return them as zeros; the launch gate and the time model refuse it."""
    from repro.machine import power8
    from repro.perf.parallel import parallel_predict_time

    t, _ = problem
    _patch_partition(monkeypatch, [0, 10, 12, 20])
    ex = ParallelExecutor(n_threads=3)
    with pytest.raises(ScheduleError, match=r"PL401 .*\[20, 24\) are covered by no"):
        ex.prepare(t, 0, "splatt")
    with pytest.raises(ScheduleError, match="PL401"):
        parallel_predict_time(t, 0, 8, power8(1), 3)


def test_serial_backend_and_report(problem):
    t, factors = problem
    ex = ParallelExecutor(n_threads=3, backend="serial")
    pplan = ex.prepare(t, 0, "splatt")
    assert isinstance(pplan, ParallelPlan)
    assert pplan.n_threads == 3
    assert pplan.nnz == t.nnz
    ex.execute(pplan, factors)
    report = ex.last_report
    assert isinstance(report, ExecutionReport)
    assert report.backend == "serial"
    assert len(report.thread_times_s) == 3
    assert report.makespan_s >= 0.0
    assert report.imbalance >= 1.0
    assert sum(report.thread_nnz) == t.nnz


def test_out_buffer_reused(problem):
    t, factors = problem
    ex = ParallelExecutor(n_threads=_threads(2))
    pplan = ex.prepare(t, 0, "coo")
    out = np.full((t.shape[0], 12), 7.0)
    got = ex.execute(pplan, factors, out=out)
    assert got is out
    np.testing.assert_array_equal(out, get_kernel("coo").mttkrp(t, factors, 0))


def test_more_threads_than_rows():
    t = poisson_tensor((3, 10, 8), 60, seed=5)
    rng = np.random.default_rng(6)
    factors = [rng.standard_normal((n, 4)) for n in t.shape]
    got = parallel_mttkrp(t, factors, 0, "splatt", n_threads=_threads(8))
    np.testing.assert_array_equal(
        got, get_kernel("splatt").mttkrp(t, factors, 0)
    )


def test_bad_config_rejected():
    with pytest.raises(ConfigError):
        ParallelExecutor(n_threads=0)
    for backend in ("gpu", "process"):
        with pytest.raises(ConfigError, match=r"\('thread', 'serial'\)"):
            ParallelExecutor(backend=backend)
    assert BACKENDS == ("thread", "serial")


def test_tune_threads_feeds_executor(problem):
    from repro.machine import power8
    from repro.tune import Tuner

    t, factors = problem
    tuner = Tuner(t, 0, power8(1).scaled(1.0 / 16.0))
    tuned = tuner.tune_threads(12, thread_counts=(1, 2, 4))
    assert tuned.n_threads in (1, 2, 4)
    assert set(tuned.makespans) == {1, 2, 4}
    assert tuned.serial_time == tuned.makespans[1]
    assert tuned.speedup >= 1.0
    got = parallel_mttkrp(
        t, factors, 0, "splatt", n_threads=_threads(tuned.n_threads)
    )
    np.testing.assert_array_equal(
        got, get_kernel("splatt").mttkrp(t, factors, 0)
    )
