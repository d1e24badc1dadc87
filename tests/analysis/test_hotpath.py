"""Hot-path lint (HP3xx), suppression machinery, and the diagnostic model."""

from __future__ import annotations

import json

import pytest

from repro.analysis import run_check
from repro.analysis.diagnostics import (
    Diagnostic,
    Severity,
    apply_suppressions,
    render_json,
    render_text,
    resolve_rules,
    suppressions_for_source,
)
from repro.analysis.hotpath import scan_source
from repro.util.errors import ConfigError


def _rules(diags):
    return sorted(d.rule for d in diags)


class TestHP301PerElementLoop:
    @pytest.mark.parametrize(
        "iterable", ["range(len(vals))", "range(vals.shape[0])", "range(vals.size)"]
    )
    def test_per_element_patterns_flagged(self, iterable):
        src = f"def f(vals, out):\n    for i in {iterable}:\n        out[i] = vals[i]\n"
        assert _rules(scan_source(src, "k.py")) == ["HP301"]

    def test_stepped_chunk_loop_exempt(self):
        src = (
            "def f(vals, out):\n"
            "    for lo in range(0, len(vals), 4096):\n"
            "        out[lo : lo + 4096] = vals[lo : lo + 4096]\n"
        )
        assert scan_source(src, "k.py") == []

    def test_loop_without_subscript_exempt(self):
        src = "def f(blocks):\n    for i in range(len(blocks)):\n        pass\n"
        assert scan_source(src, "k.py") == []

    def test_fixed_trip_mode_loop_exempt(self):
        src = "def f(shape, out):\n    for m in range(3):\n        out[m] = shape[m]\n"
        assert scan_source(src, "k.py") == []


class TestHP302InvariantChains:
    def test_repeated_invariant_chain_flagged(self):
        src = (
            "def f(self, n):\n"
            "    while n:\n"
            "        a = self.csf.vals + 1\n"
            "        b = self.csf.vals + 2\n"
            "        c = self.csf.vals + 3\n"
            "        n -= 1\n"
        )
        diags = scan_source(src, "k.py")
        assert _rules(diags) == ["HP302"]
        assert "self.csf.vals" in diags[0].message
        assert "hoist" in diags[0].hint

    def test_rebound_root_exempt(self):
        # The chain root is assigned inside the loop, so it is not
        # invariant and hoisting would change semantics.
        src = (
            "def f(items, n):\n"
            "    for node in items:\n"
            "        a = node.child.vals\n"
            "        b = node.child.vals\n"
            "        c = node.child.vals\n"
        )
        assert scan_source(src, "k.py") == []

    def test_below_threshold_exempt(self):
        src = (
            "def f(self, n):\n"
            "    while n:\n"
            "        a = self.csf.vals\n"
            "        b = self.csf.vals\n"
            "        n -= 1\n"
        )
        assert scan_source(src, "k.py") == []


class TestHP303Allocations:
    def test_missing_dtype_flagged(self):
        assert _rules(scan_source("import numpy as np\nA = np.zeros((3, 4))\n", "k.py")) == [
            "HP303"
        ]

    def test_keyword_dtype_clean(self):
        src = "import numpy as np\nA = np.zeros((3, 4), dtype=np.float64)\n"
        assert scan_source(src, "k.py") == []

    def test_positional_dtype_clean(self):
        src = "import numpy as np\nA = np.full((3, 4), 1.0, np.float64)\n"
        assert scan_source(src, "k.py") == []

    def test_non_numpy_zeros_ignored(self):
        assert scan_source("A = mylib.zeros((3, 4))\n", "k.py") == []


class TestSuppression:
    def test_bare_noqa_suppresses_everything(self):
        src = "import numpy as np\nA = np.zeros((3, 4))  # repro: noqa\n"
        diags = scan_source(src, "k.py")
        assert apply_suppressions(diags, suppressions_for_source(src)) == []

    def test_scoped_noqa_suppresses_listed_rule_only(self):
        src = "import numpy as np\nA = np.zeros((3, 4))  # repro: noqa[HP303]\n"
        diags = scan_source(src, "k.py")
        assert apply_suppressions(diags, suppressions_for_source(src)) == []

    def test_scoped_noqa_keeps_other_rules(self):
        src = "import numpy as np\nA = np.zeros((3, 4))  # repro: noqa[HP301]\n"
        diags = scan_source(src, "k.py")
        kept = apply_suppressions(diags, suppressions_for_source(src))
        assert _rules(kept) == ["HP303"]

    def test_runner_honours_noqa(self, tmp_path):
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(
            "import numpy as np\nA = np.zeros((3, 4))  # repro: noqa[HP303]\n"
        )
        result = run_check([tmp_path])
        assert result.exit_code == 0


class TestHotPathScoping:
    def test_only_kernels_dirs_are_linted(self, tmp_path):
        # The same hazard outside kernels/ is orchestration code: not
        # linted.  Inside kernels/, it is.
        hazard = "import numpy as np\nA = np.zeros((3, 4))\n"
        (tmp_path / "driver.py").write_text(hazard)
        kdir = tmp_path / "kernels"
        kdir.mkdir()
        (kdir / "k.py").write_text(hazard)
        result = run_check([tmp_path])
        assert _rules(result.diagnostics) == ["HP303"]
        assert result.diagnostics[0].file.endswith("k.py")
        assert result.warnings == 1 and result.errors == 0
        assert result.exit_code == 1  # warnings still gate CI


class TestDiagnosticModel:
    def test_severity_autofilled_from_catalog(self):
        d = Diagnostic("HP301", "f.py", 3, 0, "msg")
        assert d.severity is Severity.WARNING
        assert Diagnostic("PL401", "f.py", 1, 0, "msg").severity is Severity.ERROR

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigError, match="unknown diagnostic rule"):
            Diagnostic("ZZ999", "f.py", 1, 0, "msg")

    def test_format_shape(self):
        d = Diagnostic("HP303", "f.py", 7, 4, "no dtype", hint="pass dtype=")
        assert d.format() == "f.py:7:4: HP303 [warning] no dtype (hint: pass dtype=)"

    def test_resolve_rules_ids_and_prefixes(self):
        assert resolve_rules("HP301,PL401") == {"HP301", "PL401"}
        assert resolve_rules("hp") == {"HP301", "HP302", "HP303"}
        assert resolve_rules(None) is None
        with pytest.raises(ConfigError, match="unknown rule"):
            resolve_rules("XY")

    def test_render_text_and_json_agree(self):
        diags = [Diagnostic("HP303", "f.py", 1, 0, "m", hint="h")]
        text = render_text(diags, files_checked=3)
        assert "3 file(s), 0 error(s), 1 warning(s)" in text
        payload = json.loads(render_json(diags, files_checked=3))
        assert payload["summary"] == {
            "files_checked": 3,
            "errors": 0,
            "warnings": 1,
        }
        assert payload["diagnostics"][0]["rule"] == "HP303"
        assert payload["diagnostics"][0]["line"] == 1
