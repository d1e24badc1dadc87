"""Smoke test of the end-to-end benchmark (tiny inputs, about 25 s):

    python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(tmp: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/e2e/run.py"), "--scale", "smoke",
         "--out", str(tmp), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """One timed and one traced run of all four workloads."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for trace in (0, 1):
        path = tmp / f"trace{trace}.json"
        proc = bench(tmp, "--trace", str(trace), "--json", str(path))
        assert proc.returncode == 0, proc.stderr
        out[trace] = json.loads(path.read_text())
    out["dir"] = tmp
    return out


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_reported_with_its_unit(runs, trace, kind):
    records = runs[trace]
    assert [r["workload"] for r in records] == WORKLOADS
    for rec in records:
        res = rec["result"]
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_metrics_are_never_zero(runs):
    for rec in runs[0]:
        assert all(v["value"] > 0 for v in rec["result"]["metrics"].values())


def test_traces_are_valid_chrome_traces(runs):
    sys.path.insert(0, str(ROOT / "src"))
    from repro.obs.export import validate_chrome_trace

    for workload in WORKLOADS:
        doc = json.loads((runs["dir"] / f"{workload}.trace.json").read_text())
        validate_chrome_trace(doc)
        assert doc["traceEvents"]
    for rec in runs[1]:
        if rec["workload"].startswith("als-"):
            cov = rec["result"]["metrics"]["trace.coverage"]["value"]
            assert 0.9 <= cov <= 1.1


def test_corrupted_response_is_counted_as_failed(tmp_path):
    proc = bench(tmp_path, "--workload", "serve-mix", "--corrupt", "1")
    assert proc.returncode == 1
    res = json.loads(proc.stdout.splitlines()[-1])
    assert not res["correct"] and res["failed"] == 1


def test_compare_two_sets(runs, tmp_path):
    path = str(runs["dir"] / "trace0.json")
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), path, path, "--sets"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count(" ok ") == len(WORKLOADS) * len(SPEC["end_to_end"])


def test_run_length_is_fixed(tmp_path):
    proc = bench(tmp_path, "--seconds", "5")
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, the
    benchmark exits non-zero without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
