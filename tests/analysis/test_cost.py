"""Integration tests for the symbolic loop-nest cost certifier."""

import json

import pytest

from repro.analysis.cost import (
    KERNEL_COST_SPECS,
    ModuleRegistry,
    certify_all,
    certify_kernel,
    derive_certificate,
    model_gather_rows,
    model_stream_bytes,
)
from repro.analysis.runner import run_check
from repro.analysis.symbolic import (
    DISTINCT_OUT,
    ITEMSIZE,
    N_FIBERS,
    N_STRIPS,
    NNZ,
    RANK,
)

ALL_KERNELS = sorted(KERNEL_COST_SPECS)


@pytest.fixture(scope="module")
def registry():
    return ModuleRegistry()


class TestCertificates:
    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_all_shipped_kernels_certify_clean(self, name, registry):
        cert, diags = certify_kernel(name, registry)
        assert cert is not None
        assert diags == [], [
            f"{d.rule} {d.file}:{d.line} {d.message}" for d in diags
        ]

    def test_coo_certificate_polynomials(self, registry):
        cert, _ = derive_certificate("coo", registry)
        # COO reads its value stream once and gathers B per nonzero
        assert cert.stream_bytes["val"] == NNZ * ITEMSIZE
        assert cert.gather_rows["B"] == NNZ
        assert cert.gather_elements["B"] == NNZ * RANK
        # no fiber compression: the sorted row stream is the delimiter
        assert cert.stream_bytes["k_pointer"] == 8 * NNZ

    def test_splatt_certificate_polynomials(self, registry):
        cert, _ = derive_certificate("splatt", registry)
        assert cert.stream_bytes["j_index"] == 8 * NNZ
        assert cert.stream_bytes["k_index"] == 8 * N_FIBERS
        assert cert.gather_rows["C"] == N_FIBERS
        assert cert.gather_elements["C"] == N_FIBERS * RANK
        # the fiber_rows map is excluded from the model comparison
        assert "row_map" in cert.excluded_bytes

    def test_rankb_strips_scale_rows_not_elements(self, registry):
        cert, _ = derive_certificate("rankb", registry)
        # per-strip re-gathers: rows scale with n_strips...
        assert cert.gather_rows["B"] == N_STRIPS * NNZ
        # ...but strip width R/n_strips cancels in gathered elements
        assert cert.gather_elements["B"] == NNZ * RANK
        assert cert.stream_bytes["val"] == N_STRIPS * NNZ * ITEMSIZE
        # each strip scatters into a column view of the fiber-owning rows
        assert cert.writes[0].kind == "distinct_out"
        assert cert.writes[0].elements == DISTINCT_OUT * RANK

    def test_csf_blocked_packed_factor_roles_recovered(self, registry):
        cert, _ = derive_certificate("csf-blocked", registry)
        assert cert.gather_rows["B"] == N_STRIPS * NNZ
        assert cert.gather_rows["C"] == N_STRIPS * N_FIBERS
        assert cert.writes[0].kind == "distinct_out"

    @pytest.mark.parametrize("name", ALL_KERNELS)
    def test_counter_polys_strip_invariant(self, name, registry):
        """kernel.gathers folds to nnz + n_fibers for every family."""
        cert, _ = derive_certificate(name, registry)
        subs = KERNEL_COST_SPECS[name].subs
        gathers = cert.gathers_counter().substitute(subs)
        expected = (NNZ + N_FIBERS).substitute(subs)
        assert gathers == expected
        factor_bytes = cert.factor_bytes_counter().substitute(subs)
        expected_fb = (
            (NNZ + N_FIBERS + DISTINCT_OUT) * RANK * ITEMSIZE
        ).substitute(subs)
        assert factor_bytes == expected_fb

    def test_model_mirror_matches_traffic_constants(self):
        """The mirror must track estimate_traffic's 16*nnz + 16*n_fibers
        float64 shape (pinned by tests/machine/test_trace_and_traffic)."""
        total = sum(
            model_stream_bytes().values(), NNZ * 0
        ).substitute({"n_strips": 1, "itemsize": 8})
        assert total == 16 * NNZ + 16 * N_FIBERS
        rows = model_gather_rows()
        assert rows["B"].substitute({"n_strips": 1}) == NNZ

    def test_certify_all_covers_every_kernel(self):
        scan = certify_all()
        assert sorted(scan.certificates) == ALL_KERNELS
        assert all(
            not diags for diags in scan.diagnostics_by_file.values()
        ), scan.diagnostics_by_file


class TestRunnerIntegration:
    def test_run_check_cost_clean(self):
        result = run_check(cost=True)
        ct = [d for d in result.diagnostics if d.rule.startswith("CT")]
        assert ct == []
        assert result.exit_code == 0

    def test_calibrate_implies_cost(self):
        result = run_check(calibrate=True)
        assert result.exit_code == 0

    def test_cost_files_outside_scanned_paths_still_covered(self, tmp_path):
        # scanning an unrelated tree with --cost still certifies the
        # shipped kernels (their modules are loaded on demand)
        f = tmp_path / "empty.py"
        f.write_text("x = 1\n")
        result = run_check(paths=[tmp_path], cost=True)
        assert result.exit_code == 0
        assert result.files_checked == 1


class TestCLI:
    def test_check_cost_text(self, capsys):
        from repro.cli import main

        assert main(["check", "--cost", "src/repro/kernels"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_check_cost_json_statistics(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "check",
                    "--cost",
                    "--statistics",
                    "--format",
                    "json",
                    "src/repro/kernels",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == []

    def test_sarif_declares_ct_rules(self, capsys):
        from repro.cli import main

        main(["check", "--cost", "--format", "sarif", "src/repro/kernels"])
        doc = json.loads(capsys.readouterr().out)
        rules = {
            r["id"]
            for r in doc["runs"][0]["tool"]["driver"]["rules"]
        }
        assert {f"CT70{i}" for i in range(1, 10)} <= rules


class TestRegistrationGate:
    def test_gate_off_by_default(self, monkeypatch):
        from repro.analysis.cost import cost_vet_enabled

        monkeypatch.delenv("REPRO_COST_VET", raising=False)
        assert not cost_vet_enabled()

    def test_shipped_kernels_pass_gate(self, monkeypatch):
        from repro.analysis.cost import _COST_VETTED, enforce_kernel_cost
        from repro.kernels.splatt_mttkrp import SplattKernel

        monkeypatch.setenv("REPRO_COST_VET", "1")
        _COST_VETTED.discard(SplattKernel)
        enforce_kernel_cost(SplattKernel)  # must not raise
        assert SplattKernel in _COST_VETTED

    def test_unknown_class_skipped(self, monkeypatch):
        from repro.analysis.cost import enforce_kernel_cost

        monkeypatch.setenv("REPRO_COST_VET", "1")

        class NotAKernel:
            pass

        enforce_kernel_cost(NotAKernel)  # no spec: silently skipped
