"""SARIF 2.1.0 rendering (``repro check --format sarif``)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.diagnostics import RULES, Diagnostic, Severity
from repro.analysis.sarif import SARIF_VERSION, render_sarif, to_sarif
from repro.cli import main


@pytest.fixture
def diags():
    return [
        Diagnostic("PL401", "src/repro/kernels/k.py", 12, 4, "gap", hint="derive"),
        Diagnostic("HP303", "src/repro/kernels/k.py", 2, 0, "no dtype"),
    ]


class TestLogShape:
    def test_version_and_schema(self, diags):
        log = to_sarif(diags, files_checked=2)
        assert log["version"] == SARIF_VERSION
        assert log["$schema"].endswith("sarif-schema-2.1.0.json")
        assert len(log["runs"]) == 1

    def test_one_descriptor_per_catalog_rule(self, diags):
        rules = to_sarif(diags)["runs"][0]["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == set(RULES)
        by_id = {r["id"]: r for r in rules}
        assert by_id["PL401"]["defaultConfiguration"]["level"] == "error"
        assert by_id["HP303"]["defaultConfiguration"]["level"] == "warning"
        assert by_id["PL401"]["shortDescription"]["text"] == RULES["PL401"].summary

    def test_rule_index_points_into_descriptors(self, diags):
        run = to_sarif(diags)["runs"][0]
        for res in run["results"]:
            descriptor = run["tool"]["driver"]["rules"][res["ruleIndex"]]
            assert descriptor["id"] == res["ruleId"]


class TestResults:
    def test_levels_follow_severity(self, diags):
        results = to_sarif(diags)["runs"][0]["results"]
        levels = {r["ruleId"]: r["level"] for r in results}
        assert levels == {"PL401": "error", "HP303": "warning"}

    def test_location_is_one_based(self, diags):
        (res, _) = to_sarif(diags)["runs"][0]["results"]
        region = res["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 12
        # Diagnostic cols are 0-based AST offsets; SARIF is 1-based.
        assert region["startColumn"] == 5

    def test_hint_folded_into_message(self, diags):
        (res, _) = to_sarif(diags)["runs"][0]["results"]
        assert "hint: derive" in res["message"]["text"]

    def test_uri_is_posix_relative(self, diags):
        (res, _) = to_sarif(diags)["runs"][0]["results"]
        uri = res["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
        assert uri == "src/repro/kernels/k.py"
        assert "\\" not in uri

    def test_clean_run_has_empty_results(self):
        log = to_sarif([], files_checked=5)
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["properties"]["filesChecked"] == 5


class TestCLI:
    def test_check_format_sarif_round_trips(self, tmp_path, capsys):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(
            "import numpy as np\nA = np.zeros((3, 4))\n"
        )
        assert main(["check", str(tmp_path), "--format", "sarif"]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        (res,) = log["runs"][0]["results"]
        assert res["ruleId"] == "HP303"
        assert res["level"] == "warning"

    def test_clean_tree_sarif_exit_zero(self, tmp_path, capsys):
        (tmp_path / "m.py").write_text("x = 1\n")
        assert main(["check", str(tmp_path), "--format", "sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_render_sarif_is_valid_json(self, diags):
        parsed = json.loads(render_sarif(diags, 3))
        assert parsed["runs"][0]["properties"]["filesChecked"] == 3


def test_every_severity_is_mappable():
    # A new Severity member must be added to the SARIF level map too.
    from repro.analysis.sarif import _LEVELS

    assert set(_LEVELS) == set(Severity)
