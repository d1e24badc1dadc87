"""Suppression hygiene: DG001 unused-noqa detection, comment-accurate
noqa parsing, and the runner's skip-dir hardening."""

from __future__ import annotations

import pytest

from repro.analysis import run_check
from repro.analysis.diagnostics import (
    Diagnostic,
    suppressions_for_source,
    unused_suppression_diagnostics,
)
from repro.analysis.runner import iter_python_files

ALL_FAMILIES = {"HP", "PL", "DG"}


def _rules(diags):
    return sorted(d.rule for d in diags)


class TestNoqaParsing:
    def test_docstring_mention_is_not_a_directive(self):
        src = '"""Suppress with ``# repro: noqa[HP303]`` on the line."""\nx = 1\n'
        assert suppressions_for_source(src) == {}

    def test_backtick_quoted_comment_mention_exempt(self):
        src = "#: suppressible via ``# repro: noqa`` on the flagged line\nx = 1\n"
        assert suppressions_for_source(src) == {}

    def test_real_comment_directive_parsed(self):
        src = "import numpy as np\nA = np.zeros(3)  # repro: noqa[HP303]\n"
        assert suppressions_for_source(src) == {2: {"HP303"}}

    def test_bare_noqa_parsed_as_suppress_all(self):
        src = "x = 1  # repro: noqa\n"
        assert suppressions_for_source(src) == {1: None}

    def test_untokenizable_source_falls_back_to_line_scan(self):
        src = "def broken(:\n    x = 1  # repro: noqa[HP303]\n"
        assert suppressions_for_source(src) == {2: {"HP303"}}


class TestDG001:
    def _diag(self, rule, line):
        return Diagnostic(rule, "k.py", line, 0, "msg")

    def test_used_suppression_not_flagged(self):
        raw = [self._diag("HP303", 2)]
        out = unused_suppression_diagnostics(
            raw, {2: {"HP303"}}, "k.py", ALL_FAMILIES
        )
        assert out == []

    def test_unused_listed_suppression_flagged(self):
        out = unused_suppression_diagnostics(
            [], {2: {"HP303"}}, "k.py", ALL_FAMILIES
        )
        assert _rules(out) == ["DG001"]
        assert "HP303" in out[0].message

    def test_partially_stale_list_names_only_stale_ids(self):
        raw = [self._diag("HP303", 2)]
        (d,) = unused_suppression_diagnostics(
            raw, {2: {"HP303", "HP301"}}, "k.py", ALL_FAMILIES
        )
        assert "HP301" in d.message and "HP303" not in d.message

    def test_bare_noqa_with_no_findings_flagged(self):
        (d,) = unused_suppression_diagnostics([], {3: None}, "k.py", ALL_FAMILIES)
        assert d.rule == "DG001" and d.line == 3

    def test_bare_noqa_with_any_finding_exempt(self):
        raw = [self._diag("PL401", 3)]
        assert (
            unused_suppression_diagnostics(raw, {3: None}, "k.py", ALL_FAMILIES)
            == []
        )

    def test_inactive_family_exempt(self):
        # noqa[PL401] is not "unused" on a run that skipped --plans.
        out = unused_suppression_diagnostics(
            [], {2: {"PL401"}}, "k.py", {"HP", "DG"}
        )
        assert out == []

    @pytest.mark.parametrize(
        "stale",
        [
            "CT701",  # a deleted family's rule id
            "HP399",  # a live family, no such rule
            "XX999",  # no such family
        ],
    )
    def test_unknown_rule_id_flagged(self, stale):
        # An id outside the catalogue can never fire, whatever ran.
        for active in (ALL_FAMILIES, set()):
            (d,) = unused_suppression_diagnostics(
                [], {2: {stale}}, "k.py", active
            )
            assert d.rule == "DG001" and d.line == 2
            assert f"unknown rule id: {stale}" in d.message

    def test_runtime_family_always_exempt(self):
        out = unused_suppression_diagnostics(
            [], {2: {"SZ501", "SZ502"}}, "k.py", ALL_FAMILIES | {"SZ"}
        )
        assert out == []

    def test_dg001_self_suppression_exempt(self):
        out = unused_suppression_diagnostics(
            [], {2: {"DG001", "HP303"}}, "k.py", ALL_FAMILIES
        )
        assert out == []


class TestDG001ThroughRunner:
    def test_stale_noqa_reported(self, tmp_path):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(
            "import numpy as np\n"
            "A = np.zeros(3, dtype=np.float32)  # repro: noqa[HP303]\n"
        )
        result = run_check(paths=[tmp_path])
        assert _rules(result.diagnostics) == ["DG001"]

    def test_used_noqa_quiet(self, tmp_path):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(
            "import numpy as np\nA = np.zeros(3)  # repro: noqa[HP303]\n"
        )
        result = run_check(paths=[tmp_path])
        assert result.diagnostics == []

    def test_unknown_rule_noqa_reported(self, tmp_path):
        # A noqa naming a deleted rule is stale on every run, not only
        # on one whose pass would have produced it.
        (tmp_path / "m.py").write_text(
            "import numpy as np\n"
            "def f(factors):\n"
            "    return np.sum(factors[0])  # repro: noqa[CT701]\n"
        )
        result = run_check(paths=[tmp_path])
        (d,) = result.diagnostics
        assert (d.rule, d.line) == ("DG001", 3)
        assert "unknown rule id: CT701" in d.message

    def test_hp_noqa_outside_hot_path_exempt(self, tmp_path):
        # The HP pass never ran on a non-kernels file, so its noqa is
        # not judged stale there.
        (tmp_path / "m.py").write_text(
            "import numpy as np\nA = np.zeros(3)  # repro: noqa[HP303]\n"
        )
        assert run_check(paths=[tmp_path]).diagnostics == []

    def test_dg001_ignorable(self, tmp_path):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(
            "import numpy as np\n"
            "A = np.zeros(3, dtype=np.float32)  # repro: noqa[HP303]\n"
        )
        result = run_check(paths=[tmp_path], ignore={"DG001"})
        assert result.diagnostics == []


class TestSkipDirs:
    @pytest.mark.parametrize(
        "vendored", [".venv", "venv", "build", "dist", "pkg.egg-info"]
    )
    def test_vendored_trees_not_scanned(self, tmp_path, vendored):
        sub = tmp_path / vendored / "kernels"
        sub.mkdir(parents=True)
        (sub / "bad.py").write_text("import numpy as np\nA = np.zeros(3)\n")
        (tmp_path / "ok.py").write_text("x = 1\n")
        files = iter_python_files([tmp_path])
        assert [f.name for f in files] == ["ok.py"]
        assert run_check(paths=[tmp_path]).diagnostics == []

    def test_explicit_file_argument_still_checked(self, tmp_path):
        # Skip dirs prune directory walks, not direct file arguments.
        sub = tmp_path / "build"
        sub.mkdir()
        target = sub / "m.py"
        target.write_text("x = 1\n")
        assert iter_python_files([target]) == [target]
