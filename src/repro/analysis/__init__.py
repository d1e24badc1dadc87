"""Static analysis for the kernel zoo and its parallel schedules.

Five passes behind one diagnostic model (``repro check``):

* :mod:`repro.analysis.contract` — AST kernel-contract checker: every
  registered kernel conforms to the :class:`~repro.kernels.base.Kernel` /
  :class:`~repro.kernels.base.Plan` ABCs (rules KC101-KC111);
* :mod:`repro.analysis.races` — symbolic blocked-schedule race detector:
  proves parallel tasks write disjoint mode-n output rows, or reports the
  conflicting pairs and whether privatized accumulators fix them (rules
  RS201-RS202); wired into :mod:`repro.perf.parallel` and
  :mod:`repro.dist.mttkrp`;
* :mod:`repro.analysis.hotpath` — hot-path performance lint for kernel
  modules: devectorized loops, repeated attribute lookups, silent dtype
  promotion (rules HP301-HP303);
* :mod:`repro.analysis.plans` — symbolic plan verifier: proves blocking
  grids, rank strips, thread ranges, and distributed decompositions tile
  their index spaces exactly once, and that tuner outputs fit their
  cache-level target (rules PL401-PL409); wired into
  :mod:`repro.tune.tuner`, :mod:`repro.perf.parallel`, and
  :mod:`repro.dist.mttkrp`;
* :mod:`repro.analysis.sanitize` — instrumented kernel execution: checks
  observed writes against the plan's declared write-set, gather bounds,
  NaN/Inf emergence, dtype drift, and the traffic-model footprint
  (rules SZ501-SZ506; ``repro sanitize``);

Unused ``# repro: noqa`` suppressions are reported as DG001.  Findings
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
    verify_thread_ranges,
)
from repro.analysis.sanitize import SanitizeReport, sanitized_execute
from repro.analysis.races import (
    Conflict,
    RaceReport,
    TaskWriteSet,
    check_schedule,
    detect_conflicts,
    verify_fold_covers_conflicts,
    verify_safe,
    write_sets_for_blocked,
    write_sets_for_boundaries,
    write_sets_for_coo_chunks,
    write_sets_for_decomposition,
    write_sets_for_grid,
    write_sets_for_ranges,
)
from repro.analysis.runner import CheckResult, ParseCache, run_check

__all__ = [
    "RULES",
    "Diagnostic",
    "Rule",
    "Severity",
    "render_json",
    "render_text",
    "resolve_rules",
    "Conflict",
    "RaceReport",
    "TaskWriteSet",
    "check_schedule",
    "detect_conflicts",
    "verify_fold_covers_conflicts",
    "verify_safe",
    "write_sets_for_blocked",
    "write_sets_for_boundaries",
    "write_sets_for_coo_chunks",
    "write_sets_for_decomposition",
    "write_sets_for_grid",
    "write_sets_for_ranges",
    "rule_family_counts",
    "tiling_report",
    "verify_decomposition",
    "verify_grid",
    "verify_plan",
    "verify_rank_blocking",
    "verify_thread_ranges",
    "SanitizeReport",
    "sanitized_execute",
    "CheckResult",
    "ParseCache",
    "run_check",
    "unused_suppression_diagnostics",
    "render_sarif",
    "to_sarif",
]
