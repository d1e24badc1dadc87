"""End-to-end tests of the ``repro bench`` CLI verbs."""

import json

import pytest

from repro.bench import BenchSuiteResult, load_suite, save_suite
from repro.bench.harness import BenchmarkResult, summarize_samples
from repro.cli import main


def synthetic_suite_file(path, name="fig2_roofline", scale=1.0):
    samples = [s * scale for s in (0.0100, 0.0101, 0.0099)]
    suite = BenchSuiteResult(
        config={"tier": "quick"},
        results=[
            BenchmarkResult(
                name=name,
                tags=("model",),
                params={"tier": "quick"},
                samples_s=samples,
                summary=summarize_samples(samples),
                metrics={},
                model=None,
                check="passed",
            )
        ],
    )
    save_suite(suite, str(path))
    return str(path)


class TestBenchList:
    def test_list_text(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig2_roofline" in out and "table3_distributed" in out

    def test_list_json_filtered(self, capsys):
        assert main(["bench", "list", "--filter", "dist", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {e["name"] for e in doc} == {
            "table3_distributed",
            "decomposition_comparison",
            "dist_strong_scaling_real",
        }


class TestBenchRun:
    def test_quick_run_writes_valid_suite(self, tmp_path, capsys):
        out_json = tmp_path / "out.json"
        rc = main(
            [
                "bench", "run",
                "--filter", "fig2_roofline",
                "--quick",
                "--json", str(out_json),
            ]
        )
        assert rc == 0
        suite = load_suite(str(out_json))
        (res,) = suite.results
        assert res.name == "fig2_roofline"
        assert res.check == "passed"
        assert res.params["tier"] == "quick"
        assert suite.config["tier"] == "quick"
        assert "fig2_roofline" in capsys.readouterr().out

    def test_repeats_flag_controls_sample_count(self, tmp_path):
        out_json = tmp_path / "out.json"
        assert (
            main(
                [
                    "bench", "run",
                    "--filter", "fig2_roofline",
                    "--quick",
                    "--repeats", "3",
                    "--json", str(out_json),
                ]
            )
            == 0
        )
        (res,) = load_suite(str(out_json)).results
        assert res.summary.n == 3
        assert len(res.samples_s) == 3

    def test_unknown_filter_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "bench", "run",
                "--filter", "no-such-benchmark",
                "--json", str(tmp_path / "out.json"),
            ]
        )
        assert rc == 2

    def test_artifacts_render_figure2(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "bench", "run",
                "--filter", "fig2_roofline",
                "--quick",
                "--artifacts",
                "--json", "out.json",
            ]
        )
        assert rc == 0
        text = (tmp_path / "benchmarks" / "results" / "fig2_roofline.txt").read_text()
        title, header, _rule, *body = text.splitlines()
        assert title.startswith("Figure 2")
        table = {row.split()[0]: dict(zip(header.split(), row.split())) for row in body}
        assert list(table) == ["16", "32", "64", "128", "256", "512", "1024", "2048"]
        assert table["2048"]["alpha=1"] == "256"
        assert table["2048"]["alpha=0.95"] == "4.904"
        (res,) = load_suite(str(tmp_path / "out.json")).results
        assert res.check == "passed"

    def test_artifact_write_failure_names_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "benchmarks").write_text("not a directory")
        with pytest.raises(OSError, match="benchmarks"):
            main(
                [
                    "bench", "run",
                    "--filter", "fig2_roofline",
                    "--quick",
                    "--artifacts",
                    "--json", "out.json",
                ]
            )


class TestBenchCompare:
    def test_self_compare_exits_zero(self, tmp_path, capsys):
        base = synthetic_suite_file(tmp_path / "base.json")
        assert main(["bench", "compare", base, base]) == 0
        assert "within noise" in capsys.readouterr().out

    def test_regression_exits_nonzero_and_names_benchmark(self, tmp_path, capsys):
        base = synthetic_suite_file(tmp_path / "base.json")
        slow = synthetic_suite_file(tmp_path / "slow.json", scale=2.0)
        rc = main(["bench", "compare", base, slow, "--threshold", "1.25"])
        assert rc == 1
        assert "REGRESSED: fig2_roofline" in capsys.readouterr().out

    def test_threshold_loosening_opens_gate(self, tmp_path):
        base = synthetic_suite_file(tmp_path / "base.json")
        slow = synthetic_suite_file(tmp_path / "slow.json", scale=2.0)
        assert main(["bench", "compare", base, slow, "--threshold", "3.0"]) == 0

    def test_invalid_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        base = synthetic_suite_file(tmp_path / "base.json")
        assert main(["bench", "compare", base, str(bad)]) == 2

    def test_markdown_format_and_step_summary(self, tmp_path, capsys):
        base = synthetic_suite_file(tmp_path / "base.json")
        summary = tmp_path / "summary.md"
        rc = main(
            [
                "bench", "compare", base, base,
                "--format", "markdown",
                "--github-summary", str(summary),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "## Benchmark comparison" in out
        assert "✅ no regressions" in summary.read_text()

    def test_strict_metrics_gates_drift(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        for path, speedup in ((base, 2.0), (cur, 3.0)):
            samples = [0.0100, 0.0101, 0.0099]
            suite = BenchSuiteResult(
                config={"tier": "quick"},
                results=[
                    BenchmarkResult(
                        name="m",
                        tags=("model",),
                        params={"tier": "quick"},
                        samples_s=samples,
                        summary=summarize_samples(samples),
                        metrics={"speedup": speedup},
                        model=None,
                        check="passed",
                    )
                ],
            )
            save_suite(suite, str(path))
        assert main(["bench", "compare", str(base), str(cur)]) == 0
        assert (
            main(
                [
                    "bench", "compare", str(base), str(cur),
                    "--strict-metrics",
                ]
            )
            == 1
        )
