"""The ``repro check`` CLI surface: exit codes, JSON output, race flags."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

CLEAN = "import numpy as np\nA = np.zeros((3, 4), dtype=np.float64)\n"
HAZARD = "import numpy as np\nA = np.zeros((3, 4))\n"


@pytest.fixture
def seeded_kernels(tmp_path):
    kdir = tmp_path / "kernels"
    kdir.mkdir()
    (kdir / "k.py").write_text(HAZARD)
    return tmp_path


class TestExitCodes:
    def test_self_check_is_clean(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_clean_path_exits_zero(self, tmp_path, capsys):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(CLEAN)
        assert main(["check", str(tmp_path)]) == 0

    def test_seeded_violation_exits_one(self, seeded_kernels, capsys):
        assert main(["check", str(seeded_kernels)]) == 1
        out = capsys.readouterr().out
        assert "HP303" in out
        assert ":2:" in out  # line number of the allocation
        assert "hint:" in out

    def test_ignore_filters_to_clean(self, seeded_kernels, capsys):
        assert main(["check", str(seeded_kernels), "--ignore", "HP303"]) == 0

    def test_select_other_family_is_clean(self, seeded_kernels, capsys):
        assert main(["check", str(seeded_kernels), "--select", "KC"]) == 0

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo'd path must not read as "checked clean" in CI.
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--select", "--ignore"])
    def test_unknown_rule_exits_two(self, tmp_path, capsys, flag):
        # A stale rule id (e.g. from a deleted family) is a usage error:
        # one line on stderr, no traceback.
        assert main(["check", str(tmp_path), flag, "XX999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro check: unknown rule or prefix 'XX999'")
        assert err.count("\n") == 1

    def test_removed_dataflow_flag_is_a_usage_error(self, capsys):
        # The dataflow pass is gone; its flag must fail like any unknown
        # option (argparse usage line, exit 2), not with a traceback.
        with pytest.raises(SystemExit) as exc:
            main(["check", "--dataflow"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert "unrecognized arguments: --dataflow" in err


class TestJSONFormat:
    def test_json_payload(self, seeded_kernels, capsys):
        assert main(["check", str(seeded_kernels), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["warnings"] == 1
        assert payload["summary"]["errors"] == 0
        (diag,) = payload["diagnostics"]
        assert diag["rule"] == "HP303"
        assert diag["severity"] == "warning"
        assert diag["file"].endswith("k.py")
        assert diag["hint"]

    def test_json_race_diags_included(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("x = 1\n")
        code = main(
            [
                "check",
                str(tmp_path),
                "--format",
                "json",
                "--race-grid",
                "1",
                "2",
                "2",
                "--race-shape",
                "30",
                "20",
                "10",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = [d["rule"] for d in payload["diagnostics"]]
        assert "RS202" in rules and "RS201" in rules


class TestRaceFlags:
    def test_unsafe_grid_reported(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("x = 1\n")
        code = main(
            [
                "check",
                str(tmp_path),
                "--race-grid",
                "1",
                "2",
                "2",
                "--race-shape",
                "30",
                "20",
                "10",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "UNSAFE" in out
        assert "RS201" in out and "RS202" in out

    def test_safe_grid_exits_zero(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("x = 1\n")
        code = main(
            [
                "check",
                str(tmp_path),
                "--race-grid",
                "4",
                "1",
                "1",
                "--race-shape",
                "30",
                "20",
                "10",
            ]
        )
        assert code == 0
        assert "schedule safe" in capsys.readouterr().out

    def test_output_parallel_axis_safe(self, tmp_path, capsys):
        (tmp_path / "empty.py").write_text("x = 1\n")
        code = main(
            [
                "check",
                str(tmp_path),
                "--race-grid",
                "2",
                "3",
                "2",
                "--race-parallel",
                "output",
            ]
        )
        assert code == 0


BAD_PLAN = "g = BlockGrid.from_boundaries((10,), [[0, 5, 9]])\n"


class TestPlansFlag:
    def test_bad_literal_plan_exits_one(self, tmp_path, capsys):
        (tmp_path / "bench.py").write_text(BAD_PLAN)
        assert main(["check", str(tmp_path), "--plans"]) == 1
        out = capsys.readouterr().out
        assert "PL401" in out

    def test_without_flag_plan_pass_is_off(self, tmp_path, capsys):
        (tmp_path / "bench.py").write_text(BAD_PLAN)
        assert main(["check", str(tmp_path)]) == 0

    def test_repo_benchmarks_and_examples_prove_clean(self, capsys):
        assert (
            main(["check", "--plans", "--select", "PL", "benchmarks", "examples"])
            == 0
        )

    def test_select_plan_family(self, tmp_path, capsys):
        (tmp_path / "bench.py").write_text(BAD_PLAN)
        assert main(["check", str(tmp_path), "--plans", "--select", "PL"]) == 1
        assert main(["check", str(tmp_path), "--plans", "--ignore", "PL"]) == 0


class TestStatisticsFlag:
    def test_text_statistics_lists_families(self, seeded_kernels, capsys):
        assert main(["check", str(seeded_kernels), "--statistics"]) == 1
        out = capsys.readouterr().out
        assert "HP: 1  (hot-path lint)" in out

    def test_text_statistics_clean(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path), "--statistics"]) == 0
        assert "(no diagnostics in any rule family)" in capsys.readouterr().out

    def test_json_statistics_key(self, seeded_kernels, capsys):
        assert (
            main(
                [
                    "check",
                    str(seeded_kernels),
                    "--statistics",
                    "--format",
                    "json",
                ]
            )
            == 1
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistics"] == {"HP": 1}

    def test_json_without_flag_has_no_key(self, seeded_kernels, capsys):
        main(["check", str(seeded_kernels), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert "statistics" not in payload

    def test_plans_statistics_combined(self, tmp_path, capsys):
        (tmp_path / "bench.py").write_text(BAD_PLAN)
        assert main(["check", str(tmp_path), "--plans", "--statistics"]) == 1
        assert "PL: 1  (plan verifier)" in capsys.readouterr().out
