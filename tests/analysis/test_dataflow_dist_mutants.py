"""Seeded-mutant detection for the ``repro.dist`` float64-upcast class.

The dist upcast bug survived every check run for two stacked reasons:
``repro/dist`` was accidentally excluded from scanning (the packaging
``dist/`` skip matched the package directory), and ``VALUE_DTYPE``
allocations were treated as sanctioned even with factor-derived values
flowing in.  These mutants reintroduce the original bug shapes into the
*real* fixed sources and assert ``repro check --dataflow`` would now
catch each one; the scan-scope test pins the runner fix.
"""

from __future__ import annotations

from pathlib import Path

import repro.cpd.core as als_mod
import repro.dist.mttkrp as mttkrp_mod
from repro.analysis.dataflow import scan_source as _scan_raw
from repro.analysis.diagnostics import apply_suppressions, suppressions_for_source
from repro.analysis.runner import default_paths, iter_python_files

MTTKRP_FILE = Path(mttkrp_mod.__file__)
ALS_FILE = Path(als_mod.__file__)
MTTKRP_PRISTINE = MTTKRP_FILE.read_text(encoding="utf-8")
ALS_PRISTINE = ALS_FILE.read_text(encoding="utf-8")

#: The fixed allocation/derivation lines each mutant below reverts.
MTTKRP_ALLOC_ANCHOR = (
    "    out = np.zeros((shape[mode], rank), dtype=factor_dtype(list(factors)))\n"
)
#: distributed_cp_als derives its working dtype in the shared ALS core.
ALS_DTYPE_ANCHOR = "        dtype = value_dtype_of(tensor.values)\n"


def scan_source(source: str, file: str):
    # ``dataflow.scan_source`` reports pre-suppression diagnostics; apply
    # the inline ``# repro: noqa[...]`` comments the way the runner does
    # so the pristine sources judge exactly as ``repro check`` would.
    return apply_suppressions(
        _scan_raw(source, file), suppressions_for_source(source)
    )


def _rules(diags):
    return sorted({d.rule for d in diags})


def _mutate(pristine: str, anchor: str, replacement: str) -> str:
    assert anchor in pristine, "mutation anchor vanished from the dist source"
    return pristine.replace(anchor, replacement)


def test_dist_package_is_scanned():
    # Regression: the packaging-output skip must not swallow repro/dist.
    files = iter_python_files(default_paths())
    assert any(f.name == "mttkrp.py" and "dist" in f.parts for f in files)


def test_pristine_dist_sources_are_clean():
    assert scan_source(MTTKRP_PRISTINE, str(MTTKRP_FILE)) == []
    assert scan_source(ALS_PRISTINE, str(ALS_FILE)) == []


class TestSeededDistMutants:
    def test_mttkrp_value_dtype_output_detected(self):
        # The original dist/mttkrp.py:141 bug: output pinned to float64.
        mutant = _mutate(
            MTTKRP_PRISTINE,
            MTTKRP_ALLOC_ANCHOR,
            "    from repro.util.validation import VALUE_DTYPE\n"
            "    out = np.zeros((shape[mode], rank), dtype=VALUE_DTYPE)\n",
        )
        assert "DF612" in _rules(scan_source(mutant, str(MTTKRP_FILE)))

    def test_mttkrp_literal_float64_output_detected(self):
        mutant = _mutate(
            MTTKRP_PRISTINE,
            MTTKRP_ALLOC_ANCHOR,
            "    out = np.zeros((shape[mode], rank), dtype=np.float64)\n",
        )
        assert "DF601" in _rules(scan_source(mutant, str(MTTKRP_FILE)))

    def test_mttkrp_dtypeless_output_detected(self):
        mutant = _mutate(
            MTTKRP_PRISTINE,
            MTTKRP_ALLOC_ANCHOR,
            "    out = np.zeros((shape[mode], rank))\n",
        )
        assert "DF602" in _rules(scan_source(mutant, str(MTTKRP_FILE)))

    def test_als_pinned_working_dtype_detected(self):
        # The original dist/als.py bug: factor init / weights / Gram all
        # allocated from a VALUE_DTYPE-pinned working dtype.
        mutant = _mutate(
            ALS_PRISTINE,
            ALS_DTYPE_ANCHOR,
            "        from repro.util.validation import VALUE_DTYPE\n"
            "        dtype = VALUE_DTYPE\n",
        )
        assert "DF612" in _rules(scan_source(mutant, str(ALS_FILE)))
