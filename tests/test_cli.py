"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.tensor import save_tns, uniform_random_tensor


class TestDatasets:
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("poisson1", "netflix", "amazon"):
            assert name in out


class TestAnalyze:
    def test_dataset(self, capsys):
        assert main(["analyze", "--dataset", "poisson2", "--nnz", "5000"]) == 0
        out = capsys.readouterr().out
        assert "reuse" in out

    def test_tns_file(self, tmp_path, capsys):
        t = uniform_random_tensor((9, 8, 7), 60, seed=1)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert main(["analyze", "--tns", str(path)]) == 0
        assert "9x8x7" in capsys.readouterr().out


class TestDiagnose:
    def test_baseline(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "10000",
                    "--rank",
                    "64",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "predicted time" in out

    def test_blocked_config(self, capsys):
        assert (
            main(
                [
                    "diagnose",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "10000",
                    "--rank",
                    "64",
                    "--blocks",
                    "1",
                    "4",
                    "1",
                    "--strip-cols",
                    "16",
                ]
            )
            == 0
        )
        assert "mb+rankb" in capsys.readouterr().out


class TestTune:
    def test_tune_with_cache(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        argv = [
            "tune",
            "--dataset",
            "poisson2",
            "--nnz",
            "20000",
            "--rank",
            "128",
            "--cache",
            str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "heuristic" in first
        assert cache.exists()
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "cache" in second


class TestPPA:
    def test_runs(self, capsys):
        assert (
            main(["ppa", "--dataset", "poisson3", "--nnz", "50000", "--rank", "64"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Access to B removed" in out


class TestCPD:
    def test_methods(self, capsys):
        assert (
            main(
                [
                    "cpd",
                    "--dataset",
                    "poisson1",
                    "--nnz",
                    "3000",
                    "--rank",
                    "3",
                    "--iters",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "iterations" in out

    @pytest.mark.parametrize("command", ["cpd", "trace"])
    def test_removed_method_is_a_usage_error(self, command, capsys):
        # CP-ALS is the only decomposition, so --method is gone: even its
        # one former value fails like any unknown flag (usage line, exit 2).
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "poisson1", "--method", "als"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --method als" in err


class TestScaling:
    def test_small_sweep(self, capsys):
        assert (
            main(
                [
                    "scaling",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "20000",
                    "--rank",
                    "32",
                    "--nodes",
                    "1",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "SPLATT" in out and "speedup" in out


@pytest.mark.parallel_exec
class TestDist:
    def test_parity_report(self, tmp_path, capsys):
        report_path = tmp_path / "dist.json"
        assert (
            main(
                [
                    "dist",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "8000",
                    "--rank",
                    "4",
                    "--ranks",
                    "2",
                    "--json",
                    str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bitwise parity: OK" in out
        assert "byte accounting: OK" in out
        import json

        report = json.loads(report_path.read_text())
        assert report["bitwise_equal"] is True
        assert (
            report["sim_comm_bytes"]
            == report["ledger_comm_bytes"]
            == report["measured_comm_bytes"]
        )

    def test_indivisible_rank_groups_rejected(self, capsys):
        assert (
            main(
                [
                    "dist",
                    "--dataset",
                    "poisson1",
                    "--nnz",
                    "2000",
                    "--ranks",
                    "3",
                    "--rank-groups",
                    "2",
                ]
            )
            == 2
        )
        assert "divisible" in capsys.readouterr().err


class TestReproduce:
    def test_writes_report(self, tmp_path, capsys, monkeypatch):
        """The fast subset of the consolidated report (fig2 + tables I/II
        + fig4/5; the big sweeps are exercised by benchmarks/)."""
        import repro.bench as bench

        # Stub the slow experiments; the real ones run under benchmarks/.
        rows = [{"type": i, "x": 0} for i in range(1, 7)]
        monkeypatch.setattr(bench, "experiment_table1", lambda *a, **k: rows)
        monkeypatch.setattr(bench, "experiment_table2", lambda *a, **k: rows)
        monkeypatch.setattr(
            bench,
            "experiment_fig4",
            lambda *a, **k: {"x_label": "x", "x_values": [1], "series": {"s": [1.0]}},
        )
        monkeypatch.setattr(bench, "experiment_fig5", lambda *a, **k: rows)
        out = tmp_path / "REPORT.md"
        assert (
            main(
                [
                    "reproduce",
                    "--out",
                    str(out),
                    "--skip-fig6",
                    "--skip-table3",
                ]
            )
            == 0
        )
        text = out.read_text()
        assert "# Reproduced artifacts" in text
        assert "Figure 2" in text
        assert "Figure 5b" in text


class TestErrors:
    def test_requires_source(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestSanitize:
    def test_clean_splatt_run_exits_zero(self, capsys):
        assert (
            main(
                [
                    "sanitize",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "5000",
                    "--kernel",
                    "splatt",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_clean_blocked_run_exits_zero(self, capsys):
        assert (
            main(
                [
                    "sanitize",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "5000",
                    "--kernel",
                    "mb",
                    "--blocks",
                    "2",
                    "2",
                    "2",
                    "--rank",
                    "16",
                ]
            )
            == 0
        )

    def test_json_format(self, capsys):
        import json

        assert (
            main(
                [
                    "sanitize",
                    "--dataset",
                    "poisson2",
                    "--nnz",
                    "2000",
                    "--kernel",
                    "csf",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["errors"] == 0
        assert payload["sanitize"]["written_rows"] > 0

    def test_tns_file_input(self, tmp_path, capsys):
        t = uniform_random_tensor((9, 8, 7), 60, seed=1)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert main(["sanitize", "--tns", str(path), "--rank", "8"]) == 0
