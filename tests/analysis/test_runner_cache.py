"""The runner's shared parse cache: every enabled pass reuses one AST
per file, so enabling more passes must not add parses."""

import ast
import time

from repro.analysis.runner import (
    ParseCache,
    default_paths,
    iter_python_files,
    run_check,
)


def test_dist_package_is_scanned():
    # Regression: the packaging-output skip must not swallow repro/dist.
    files = iter_python_files(default_paths())
    assert any(f.name == "mttkrp.py" and "dist" in f.parts for f in files)


class TestParseCache:
    def test_parses_once_per_file(self):
        cache = ParseCache()
        t1 = cache.tree("a.py", "x = 1\n")
        t2 = cache.tree("a.py", "x = 1\n")
        assert t1 is t2
        assert isinstance(t1, ast.Module)
        assert cache.parse_count == 1

    def test_syntax_error_cached_as_none(self):
        cache = ParseCache()
        assert cache.tree("bad.py", "def broken(:\n") is None
        assert cache.tree("bad.py", "def broken(:\n") is None
        assert cache.parse_count == 1


class TestRunnerSharing:
    def test_parse_count_equals_files_checked(self, tmp_path):
        for i in range(3):
            (tmp_path / f"m{i}.py").write_text(f"x{i} = {i}\n")
        result = run_check(paths=[tmp_path], plans=True)
        assert result.files_checked == 3
        assert result.parse_count == 3

    def test_enabling_passes_adds_no_parses(self, tmp_path):
        (tmp_path / "m.py").write_text("import numpy as np\nx = np.zeros(3)\n")
        base = run_check(paths=[tmp_path])
        full = run_check(paths=[tmp_path], plans=True)
        assert base.parse_count == full.parse_count == 1

    def test_self_hosted_run_parses_each_file_once(self):
        # the CI gate configuration: every pass on the whole package
        result = run_check(plans=True)
        assert result.parse_count == result.files_checked

    def test_shared_cache_faster_than_reparsing(self, tmp_path):
        """Crude timing sanity: N cache hits must beat N fresh parses of
        a non-trivial module (generous 2x margin; the real win is
        cross-pass, asserted structurally above)."""
        source = "\n".join(
            f"def f{i}(x):\n    return x + {i}" for i in range(200)
        )
        cache = ParseCache()
        cache.tree("big.py", source)
        n = 20
        start = time.perf_counter()
        for _ in range(n):
            cache.tree("big.py", source)
        cached = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            ast.parse(source)
        fresh = time.perf_counter() - start
        assert cached < fresh * 2
        assert cache.parse_count == 1
