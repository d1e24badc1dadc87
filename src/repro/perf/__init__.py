"""Performance models: roofline (Section IV-A), execution-time prediction,
and the pressure-point analysis harness (Section IV-B).

* :mod:`repro.perf.roofline` — Equations 1-3, the Figure 2 arithmetic-
  intensity grid, and roofline attainable performance.
* :mod:`repro.perf.model` — the additive execution-time model combining
  memory traffic, load-unit pressure and compute, calibrated to the
  additive structure the paper's Table I reveals; plus the plan cache
  whose evaluator bridges the model to the Section V-C blocking heuristic.
* :mod:`repro.perf.ppa` — the six Table I pressure points as exact term
  ablations of the time model.
"""

from repro.perf.roofline import (
    arithmetic_intensity,
    attainable_gflops,
    figure2_grid,
    is_memory_bound,
    FIG2_ALPHAS,
    FIG2_RANKS,
)
from repro.perf.model import (
    ConfigPlanner,
    TimeBreakdown,
    predict_time,
    predict_time_for_config,
    prepare_plan,
)
from repro.perf.ppa import PRESSURE_POINTS, PressurePointResult, run_ppa
from repro.perf.report import PerformanceReport, performance_report
from repro.perf.parallel import (
    ParallelTimeEstimate,
    parallel_predict_time,
    partition_rows,
    per_thread_machine,
)

__all__ = [
    "arithmetic_intensity",
    "attainable_gflops",
    "figure2_grid",
    "is_memory_bound",
    "FIG2_ALPHAS",
    "FIG2_RANKS",
    "ConfigPlanner",
    "TimeBreakdown",
    "predict_time",
    "predict_time_for_config",
    "prepare_plan",
    "PRESSURE_POINTS",
    "PressurePointResult",
    "run_ppa",
    "PerformanceReport",
    "performance_report",
    "ParallelTimeEstimate",
    "parallel_predict_time",
    "partition_rows",
    "per_thread_machine",
]
