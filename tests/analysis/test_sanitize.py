"""Execution sanitizer (SZ5xx): clean runs stay silent, mutants get caught."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sanitize import SanitizeReport, sanitized_execute
from repro.kernels import get_kernel, reference_mttkrp
from repro.kernels import csf_mttkrp
from repro.kernels.csf_mttkrp import CSFKernel
from repro.tensor.coo import COOTensor

RANK = 16


def make_problem(seed=0, shape=(24, 18, 12), nnz=250, empty_row0=False):
    rng = np.random.default_rng(seed)
    lo0 = 1 if empty_row0 else 0
    idx = np.stack(
        [rng.integers(lo0 if m == 0 else 0, s, nnz) for m, s in enumerate(shape)],
        axis=1,
    )
    idx = np.unique(idx, axis=0)
    tensor = COOTensor(shape, idx, rng.standard_normal(idx.shape[0]))
    factors = [rng.standard_normal((s, RANK)) for s in shape]
    return tensor, factors


def run(kernel_name, mode=0, seed=0, **params):
    tensor, factors = make_problem(seed)
    kernel = get_kernel(kernel_name)
    plan = kernel.prepare(tensor, mode, **params)
    report = sanitized_execute(kernel, plan, factors)
    expected = reference_mttkrp(tensor, factors, mode)
    return report, expected


class TestCleanRuns:
    @pytest.mark.parametrize(
        "kernel_name,params",
        [
            ("splatt", {}),
            ("coo", {}),
            ("csf", {}),
            ("mb", {"block_counts": (2, 2, 2)}),
            ("rankb", {"n_rank_blocks": 2}),
            ("mb+rankb", {"block_counts": (2, 2, 1), "n_rank_blocks": 2}),
            ("csf-blocked", {"block_counts": (2, 2, 2), "n_rank_blocks": 2}),
        ],
    )
    def test_zero_diagnostics_and_exact_result(self, kernel_name, params):
        report, expected = run(kernel_name, **params)
        assert report.diagnostics == []
        assert report.ok
        np.testing.assert_allclose(report.output, expected, rtol=1e-12)

    def test_footprint_matches_traffic_model(self):
        tensor, factors = make_problem(1)
        kernel = get_kernel("splatt")
        plan = kernel.prepare(tensor, 0)
        report = sanitized_execute(kernel, plan, factors)
        stats = plan.block_stats()
        nnz = sum(s.nnz for s in stats)
        n_fibers = sum(s.n_fibers for s in stats)
        assert report.gathers["factor[1]"] == (nnz, report.gathers["factor[1]"][1])
        assert report.gathers["factor[2]"][0] == n_fibers

    def test_describe_mentions_counts(self):
        report, _ = run("splatt", seed=2)
        text = report.describe()
        assert "0 error(s)" in text and "gather(s)" in text

    def test_restacked_kernels_skip_traffic_check(self):
        # Rank strips gather through column views of the guarded factors:
        # every strip's B and C gathers are observed, and they match the
        # traffic model (no SZ506).
        tensor, factors = make_problem(3)
        kernel = get_kernel("rankb")
        plan = kernel.prepare(tensor, 0, n_rank_blocks=4)
        report = sanitized_execute(kernel, plan, factors)
        assert report.gathers["factor[1]"][0] == 4 * plan.nnz
        assert report.gathers["factor[2]"][0] == 4 * plan.n_fibers
        assert not [d for d in report.diagnostics if d.rule == "SZ506"]


class LeakyKernel(CSFKernel):
    """Mutant: writes an output row outside its declared write-set."""

    name = "leaky"

    def run(self, plan, factors, A):
        super().run(plan, factors, A)
        A[0] += 1.0  # row 0 is empty in the fixture -> not in write_set()


class WrapKernel(CSFKernel):
    """Mutant: gathers with a negative (silently wrapping) index."""

    name = "wrap"

    def run(self, plan, factors, A):
        B = factors[plan.inner_mode]
        _ = B[np.array([-1, 2])]
        super().run(plan, factors, A)


class NanKernel(CSFKernel):
    """Mutant: lets a NaN emerge from finite inputs."""

    name = "nan"

    def run(self, plan, factors, A):
        super().run(plan, factors, A)
        A[plan.write_set()[0][0]] = np.nan


class TestSeededMutants:
    def test_out_of_write_set_store_is_sz501(self):
        tensor, factors = make_problem(4, empty_row0=True)
        kernel = LeakyKernel()
        plan = kernel.prepare(tensor, 0)
        assert not any(lo <= 0 < hi for lo, hi in plan.write_set())
        report = sanitized_execute(kernel, plan, factors)
        assert "SZ501" in {d.rule for d in report.diagnostics}
        assert not report.ok

    def test_wrapping_gather_is_sz502(self):
        tensor, factors = make_problem(5)
        kernel = WrapKernel()
        plan = kernel.prepare(tensor, 0)
        report = sanitized_execute(kernel, plan, factors)
        sz502 = [d for d in report.diagnostics if d.rule == "SZ502"]
        assert sz502
        assert "wrap silently" in sz502[0].message

    def test_nan_emergence_is_sz503(self):
        tensor, factors = make_problem(6)
        kernel = NanKernel()
        plan = kernel.prepare(tensor, 0)
        report = sanitized_execute(kernel, plan, factors)
        assert "SZ503" in {d.rule for d in report.diagnostics}

    def test_nan_inputs_do_not_false_positive(self):
        # A NaN already present in the inputs is numerics, not a kernel
        # bug: SZ503's finite-inputs precondition must hold it back.
        tensor, factors = make_problem(7)
        factors[1][0, 0] = np.nan
        kernel = get_kernel("splatt")
        plan = kernel.prepare(tensor, 0)
        report = sanitized_execute(kernel, plan, factors)
        assert "SZ503" not in {d.rule for d in report.diagnostics}


SPLATT_PRESETS = [
    ("splatt", {}),
    ("mb", {"block_counts": (2, 2, 2)}),
    ("rankb", {"n_rank_blocks": 2}),
    ("mb+rankb", {"block_counts": (2, 2, 1), "n_rank_blocks": 2}),
]


class TestCompiledWrites:
    """Lines 8-9 write ``A`` from compiled code, past ``__setitem__``;
    ``segment_sums_into``'s witness is what SZ501 observes."""

    @pytest.mark.parametrize("mode", [0, 1, 2])
    @pytest.mark.parametrize("kernel_name,params", SPLATT_PRESETS)
    def test_written_rows_are_the_rows_owning_a_fiber(self, kernel_name, params, mode):
        tensor, factors = make_problem(9, shape=(40, 30, 20), nnz=60)
        kernel = get_kernel(kernel_name)
        plan = kernel.prepare(tensor, mode, **params)
        report = sanitized_execute(kernel, plan, factors)
        owners = np.unique(tensor.indices[:, mode]).size
        assert 0 < owners < tensor.shape[mode]
        assert report.written_rows == owners
        assert report.ok

    @pytest.mark.parametrize("kernel_name,params", SPLATT_PRESETS)
    def test_sanitized_output_is_the_plain_output(self, kernel_name, params):
        tensor, factors = make_problem(10)
        kernel = get_kernel(kernel_name)
        plan = kernel.prepare(tensor, 1, **params)
        report = sanitized_execute(kernel, plan, factors)
        np.testing.assert_array_equal(report.output, kernel.execute(plan, factors))

    def test_target_shifted_by_one_row_is_sz501(self, monkeypatch):
        real = csf_mttkrp.segment_sums_into

        def shifted(ptr, X, Y, unit):
            # Row r's segment lands in row r + 1 (the last row's is lost).
            real(ptr[:-1], X[: ptr[-2]], Y[1:], unit)

        monkeypatch.setattr(csf_mttkrp, "segment_sums_into", shifted)
        tensor, factors = make_problem(11, shape=(40, 30, 20), nnz=60)
        kernel = get_kernel("splatt")
        plan = kernel.prepare(tensor, 0)
        report = sanitized_execute(kernel, plan, factors)
        assert "SZ501" in {d.rule for d in report.diagnostics}


class TestReportShape:
    def test_report_is_dataclass_with_write_set(self):
        report, _ = run("splatt", seed=8)
        assert isinstance(report, SanitizeReport)
        assert report.declared_write_set
        assert report.written_rows > 0
        lo, hi = report.declared_write_set[0]
        assert 0 <= lo < hi
