"""Static analysis for the kernel zoo and its parallel schedules.

Three passes behind one diagnostic model (``repro check``):

* :mod:`repro.analysis.hotpath` — hot-path performance lint for kernel
  modules: devectorized loops, repeated attribute lookups, silent dtype
  promotion (rules HP301-HP303);
* :mod:`repro.analysis.plans` — symbolic plan verifier: proves blocking
  grids, rank strips, and distributed decompositions tile their index
  spaces exactly once, and that tuner outputs fit their cache-level
  target (rules PL401-PL406, PL408, PL409); wired into :mod:`repro.tune.tuner`,
  the thread partition (:func:`repro.perf.parallel.partition_rows`) and
  :mod:`repro.dist.mttkrp`;
* :mod:`repro.analysis.sanitize` — instrumented kernel execution: checks
  observed writes against the plan's declared write-set, gather bounds,
  NaN/Inf emergence, and the traffic-model footprint (rules SZ501-SZ504
  and SZ506; ``repro sanitize``).

The kernel contract itself (``check_factors``, ``alloc_output``, the
``execute`` signature, registry names) is enforced at runtime by
:meth:`~repro.kernels.base.Kernel.execute` and
:func:`~repro.kernels.base.register_kernel`.  A scanned file that does
not parse is reported as DG002; unused ``# repro: noqa`` suppressions as
DG001.  Findings
render as text, JSON, or SARIF 2.1.0 (:mod:`repro.analysis.sarif`).

Rule catalog with rationale and suppression: ``docs/static-analysis.md``.
"""

from repro.analysis.diagnostics import (
    RULES,
    Diagnostic,
    Rule,
    Severity,
    render_json,
    render_text,
    resolve_rules,
    rule_family_counts,
    unused_suppression_diagnostics,
)
from repro.analysis.sarif import render_sarif, to_sarif
from repro.analysis.plans import (
    tiling_report,
    verify_decomposition,
    verify_grid,
    verify_plan,
    verify_rank_blocking,
)
from repro.analysis.sanitize import SanitizeReport, sanitized_execute
from repro.analysis.runner import CheckResult, ParseCache, run_check

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "render_json",
    "render_text",
    "resolve_rules",
    "rule_family_counts",
    "tiling_report",
    "verify_decomposition",
    "verify_grid",
    "verify_plan",
    "verify_rank_blocking",
    "SanitizeReport",
    "sanitized_execute",
    "CheckResult",
    "ParseCache",
    "run_check",
    "unused_suppression_diagnostics",
    "render_sarif",
    "to_sarif",
]
