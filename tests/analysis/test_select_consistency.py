"""`--select` / `--ignore` must act identically across text, JSON, and
SARIF output, and `--statistics` must count only selected families."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

#: One file, findings in two families when --dataflow runs: HP303
#: (dtype-less allocation on the hot path) and DF601 (float64 literal).
MULTI_FAMILY = (
    "import numpy as np\n"
    "def f(factors):\n"
    "    scratch = np.zeros((3, 4))\n"
    "    return np.zeros((3, 4), dtype=np.float64)\n"
)


@pytest.fixture
def seeded(tmp_path):
    kdir = tmp_path / "kernels"
    kdir.mkdir()
    (kdir / "k.py").write_text(MULTI_FAMILY)
    return tmp_path


def _run(args, capsys):
    code = main(args)
    return code, capsys.readouterr().out


def _rules_text(out: str) -> set[str]:
    return {
        tok
        for tok in out.replace(":", " ").split()
        if len(tok) == 5 and tok[:2].isalpha() and tok[2:].isdigit()
    }


def _rules_json(out: str) -> set[str]:
    return {d["rule"] for d in json.loads(out)["diagnostics"]}


def _rules_sarif(out: str) -> set[str]:
    doc = json.loads(out)
    return {r["ruleId"] for r in doc["runs"][0]["results"]}


class TestCrossFormatConsistency:
    def test_unfiltered_shows_both_families_everywhere(self, seeded, capsys):
        path = str(seeded)
        _, text = _run(["check", path, "--dataflow"], capsys)
        _, js = _run(["check", path, "--dataflow", "--format", "json"], capsys)
        _, sarif = _run(
            ["check", path, "--dataflow", "--format", "sarif"], capsys
        )
        expected = {"HP303", "DF601"}
        assert expected <= _rules_text(text)
        assert _rules_json(js) == _rules_sarif(sarif)
        assert expected <= _rules_json(js)

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_select_mixed_rule_list(self, seeded, capsys, fmt):
        """--select PL401,DF601: only the named rules survive, in every
        format (PL contributes none here — the file constructs no
        plans)."""
        code, out = _run(
            [
                "check",
                str(seeded),
                "--dataflow",
                "--plans",
                "--select",
                "PL401,DF601",
                "--format",
                fmt,
            ],
            capsys,
        )
        assert code == 1
        rules = {
            "text": _rules_text,
            "json": _rules_json,
            "sarif": _rules_sarif,
        }[fmt](out)
        assert "DF601" in rules
        assert "HP303" not in rules

    @pytest.mark.parametrize("fmt", ["json", "sarif"])
    def test_ignore_matches_select_complement(self, seeded, capsys, fmt):
        path = str(seeded)
        _, ignored = _run(
            ["check", path, "--dataflow", "--ignore", "HP", "--format", fmt],
            capsys,
        )
        _, selected = _run(
            ["check", path, "--dataflow", "--select", "DF", "--format", fmt],
            capsys,
        )
        extract = {"json": _rules_json, "sarif": _rules_sarif}[fmt]
        rules = extract(ignored)
        assert rules == extract(selected)
        assert "DF601" in rules
        assert not {r for r in rules if r.startswith("HP")}

    def test_select_everything_ignored_is_clean(self, seeded, capsys):
        for fmt in ("text", "json", "sarif"):
            code, _ = _run(
                [
                    "check",
                    str(seeded),
                    "--dataflow",
                    "--ignore",
                    "HP,DF",
                    "--format",
                    fmt,
                ],
                capsys,
            )
            assert code == 0


class TestStatisticsRespectSelection:
    def test_text_statistics_only_selected_family(self, seeded, capsys):
        code, out = _run(
            [
                "check",
                str(seeded),
                "--dataflow",
                "--select",
                "DF601",
                "--statistics",
            ],
            capsys,
        )
        assert code == 1
        assert "DF: 1" in out
        assert "HP:" not in out

    def test_json_statistics_only_selected_family(self, seeded, capsys):
        _, out = _run(
            [
                "check",
                str(seeded),
                "--dataflow",
                "--select",
                "HP",
                "--statistics",
                "--format",
                "json",
            ],
            capsys,
        )
        assert json.loads(out)["statistics"] == {"HP": 1}

    def test_statistics_after_ignore(self, seeded, capsys):
        _, out = _run(
            [
                "check",
                str(seeded),
                "--dataflow",
                "--ignore",
                "DF",
                "--statistics",
                "--format",
                "json",
            ],
            capsys,
        )
        assert json.loads(out)["statistics"] == {"HP": 1}
