"""Seeded-mutant suite: perturb a pristine kernel's loop nest and assert
the matching CT rule fires.

Each mutant edits the real module source (never the file on disk) and
recertifies through :func:`certify_kernel_source` /
:class:`ModuleRegistry` source overrides — the same path ``repro check
--cost`` exercises, so a rule that fires here fires in CI.
"""

import pytest

from repro.analysis.cost import (
    KERNEL_COST_SPECS,
    ModuleRegistry,
    certify_kernel,
    certify_kernel_source,
)


def pristine_source(name: str) -> str:
    return ModuleRegistry().source_of(KERNEL_COST_SPECS[name].module)


def mutate(name: str, old: str, new: str) -> str:
    source = pristine_source(name)
    assert old in source, f"mutation anchor not found: {old!r}"
    return source.replace(old, new)


def rules_fired(name: str, source: str) -> set[str]:
    _, diags = certify_kernel_source(name, source)
    return {d.rule for d in diags}


class TestSeededMutants:
    def test_pristine_baseline_is_clean(self):
        for name in ("splatt", "csf"):
            _, diags = certify_kernel(name)
            assert diags == []

    def test_extra_factor_read_trips_ct701(self):
        # gather B twice per chunk: derived B rows become 2*nnz
        source = mutate(
            "splatt",
            "prod = vals[:, None] * B[splatt.jidx[lo:hi]]",
            "prod = vals[:, None] * B[splatt.jidx[lo:hi]]\n"
            "            prod = prod * B[splatt.jidx[lo:hi]]",
        )
        assert "CT701" in rules_fired("splatt", source)

    def test_widened_gather_trips_ct703(self):
        # drop the chunk slice: the full index stream is re-gathered
        # once per chunk — statically unbounded
        source = mutate(
            "splatt",
            "prod = vals[:, None] * B[splatt.jidx[lo:hi]]",
            "prod = vals[:, None] * B[splatt.jidx]",
        )
        assert "CT703" in rules_fired("splatt", source)

    def test_per_nonzero_level_gather_trips_ct703(self):
        # csf's level walk gathers the fiber factor per *fiber*; using
        # the per-nonzero leaf ids widens it to nnz rows in the wrong
        # index space
        source = mutate(
            "csf",
            "acc = acc * factors[csf.mode_order[lvl_idx]][lvl.fids]",
            "acc = acc * factors[csf.mode_order[lvl_idx]][csf.leaf_fids]",
        )
        fired = rules_fired("csf", source)
        assert "CT703" in fired or "CT701" in fired

    def test_dropped_accumulator_store_trips_ct702(self):
        source = mutate(
            "splatt",
            "A[rows[starts]] += np.add.reduceat(fiber_acc, starts, axis=0)",
            "_ = np.add.reduceat(fiber_acc, starts, axis=0)",
        )
        assert "CT702" in rules_fired("splatt", source)

    def test_wrong_space_gather_trips_ct703(self):
        # C gathered through the per-nonzero inner index stream
        source = mutate(
            "splatt",
            "fiber_acc *= C[splatt.fiber_kidx[f0:f1]]",
            "fiber_acc *= C[splatt.jidx[lo:hi]]",
        )
        assert "CT703" in rules_fired("splatt", source)

    def test_slab_store_on_sparse_plan_trips_ct704(self):
        # a full-range slab store contradicts SplattPlan's sparse
        # intervals_from_rows write_set declaration
        source = mutate(
            "splatt",
            "A[rows[starts]] += np.add.reduceat(fiber_acc, starts, axis=0)",
            "A[rows[starts]] += np.add.reduceat(fiber_acc, starts, axis=0)\n"
            "        A[:, :] = A[:, :]",
        )
        assert "CT704" in rules_fired("splatt", source)

    def test_opaque_write_set_trips_ct705(self):
        source = mutate(
            "splatt",
            "return intervals_from_rows(np.unique(self.fiber_rows))",
            "return self._opaque_write_set()",
        )
        assert "CT705" in rules_fired("splatt", source)

    def test_unrecognized_loop_trips_ct709(self):
        source = mutate(
            "splatt",
            "while r0 < splatt.n_rows:",
            "while True:",
        )
        assert rules_fired("splatt", source) == {"CT709"}


class TestCounterEmissionMutants:
    """CT706/CT707: perturb _traced_execute's counter formulas."""

    BASE = "repro.kernels.base"

    def _base_source(self) -> str:
        return ModuleRegistry().source_of(self.BASE)

    def test_perturbed_gathers_emission_trips_ct706(self):
        old = 'tracer.count("kernel.gathers", nnz + n_fibers)'
        source = self._base_source()
        assert old in source
        registry = ModuleRegistry(
            source_overrides={
                self.BASE: source.replace(
                    old, 'tracer.count("kernel.gathers", nnz + 2 * n_fibers)'
                )
            }
        )
        _, diags = certify_kernel("splatt", registry)
        assert "CT706" in {d.rule for d in diags}

    def test_perturbed_factor_bytes_emission_trips_ct707(self):
        old = "(nnz + n_fibers + distinct_out) * rank * itemsize"
        source = self._base_source()
        assert old in source
        registry = ModuleRegistry(
            source_overrides={
                self.BASE: source.replace(
                    old, "(nnz + n_fibers) * rank * itemsize"
                )
            }
        )
        _, diags = certify_kernel("splatt", registry)
        assert "CT707" in {d.rule for d in diags}


class TestCalibrationMutants:
    """CT708: a tampered certificate disagrees with measured counters."""

    def test_tampered_certificate_trips_ct708(self):
        from repro.analysis.calibrate import calibrate_kernel

        cert, diags = certify_kernel("splatt")
        assert diags == []
        cert.gather_elements["B"] = cert.gather_elements["B"] * 2
        fired = {d.rule for d in calibrate_kernel("splatt", cert)}
        assert "CT708" in fired

    def test_pristine_calibration_is_exact(self):
        from repro.analysis.calibrate import calibrate_all

        by_file = calibrate_all()
        assert all(not v for v in by_file.values()), by_file

    @pytest.mark.parametrize("name", sorted(KERNEL_COST_SPECS))
    def test_every_kernel_calibrates_exactly(self, name):
        from repro.analysis.calibrate import calibrate_kernel

        assert calibrate_kernel(name) == []
