"""Benchmark subsystem: experiments, the unified harness, and comparison.

* :mod:`repro.bench.experiments` — one ``experiment_*`` function per
  paper table/figure (see DESIGN.md §4).
* :mod:`repro.bench.suites` — parameterized bodies of the supplementary
  and ablation experiments.
* :mod:`repro.bench.harness` — the :class:`Benchmark` registry and the
  statistically rigorous runner behind ``repro bench run``.
* :mod:`repro.bench.registry` — the registered experiment
  declarations (imported lazily by the harness).
* :mod:`repro.bench.schema` — the versioned ``BENCH_<timestamp>.json``
  result format.
* :mod:`repro.bench.compare` — baseline comparison and the CI
  regression gate (``repro bench compare``).

``repro bench run`` is the one runner: ``--filter figure,table
--artifacts`` regenerates the paper's tables and figures under
``benchmarks/results/``.
"""

from repro.bench.experiments import (
    experiment_fig2,
    experiment_fig4,
    experiment_fig5,
    experiment_fig6,
    experiment_table1,
    experiment_table2,
    experiment_table3,
)
from repro.bench.tables import render_series, render_rows, write_result
from repro.bench.ascii_plot import bar_chart, sparkline
from repro.bench.harness import (
    Benchmark,
    BenchmarkResult,
    SampleSummary,
    get_benchmark,
    iter_benchmarks,
    register_benchmark,
    run_benchmark,
    summarize_samples,
)
from repro.bench.schema import (
    BenchSuiteResult,
    default_result_path,
    load_suite,
    save_suite,
    suite_from_json,
    suite_to_json,
)
from repro.bench.compare import (
    Comparison,
    Delta,
    compare_suites,
    render_comparison_json,
    render_comparison_markdown,
    render_comparison_text,
)

__all__ = [
    "bar_chart",
    "sparkline",
    "experiment_fig2",
    "experiment_fig4",
    "experiment_fig5",
    "experiment_fig6",
    "experiment_table1",
    "experiment_table2",
    "experiment_table3",
    "render_series",
    "render_rows",
    "write_result",
    "Benchmark",
    "BenchmarkResult",
    "SampleSummary",
    "get_benchmark",
    "iter_benchmarks",
    "register_benchmark",
    "run_benchmark",
    "summarize_samples",
    "BenchSuiteResult",
    "default_result_path",
    "load_suite",
    "save_suite",
    "suite_from_json",
    "suite_to_json",
    "Comparison",
    "Delta",
    "compare_suites",
    "render_comparison_json",
    "render_comparison_markdown",
    "render_comparison_text",
]
