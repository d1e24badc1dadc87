"""Declarations of all registered benchmarks (the 16 ``benchmarks/``
experiments behind ``repro bench``).

Each registration names the experiment callable, its full-tier and
``--quick``-tier parameters, its tags, the shape checks the original
standalone scripts asserted (now parameter-aware so they hold at both
tiers), deterministic scalar ``metrics`` for drift detection in
``repro bench compare``, and the renderer producing the same
``benchmarks/results/*.txt`` artifacts as before.

Importing this module populates the registry in
:mod:`repro.bench.harness`; ``iter_benchmarks`` does so lazily.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.bench import suites
from repro.bench.experiments import (
    experiment_fig2,
    experiment_fig4,
    experiment_table1,
    experiment_table2,
)
from repro.bench.harness import Benchmark, register_benchmark
from repro.bench.tables import render_rows, render_series


def _series_text(data: Mapping[str, Any], title: str) -> str:
    return render_series(data["x_label"], data["x_values"], data["series"], title=title)


# ----------------------------------------------------------------------
# Figure 2 — arithmetic intensity
# ----------------------------------------------------------------------
def _check_fig2(data: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    if params:
        return  # endpoint values below are specific to the default axes
    a95 = data["series"]["alpha=0.95"]
    assert abs(a95[0] - 1.43) < 0.01
    assert abs(a95[-1] - 4.90) < 0.01
    a1 = data["series"]["alpha=1"]
    assert abs(a1[-1] - 2048 / 8) < 0.5


register_benchmark(
    Benchmark(
        name="fig2_roofline",
        fn=experiment_fig2,
        tags=frozenset({"model", "figure"}),
        description="Figure 2: arithmetic intensity vs rank (Eq. 3)",
        check=_check_fig2,
        metrics=lambda d: {
            "intensity_a95_first": d["series"]["alpha=0.95"][0],
            "intensity_a95_last": d["series"]["alpha=0.95"][-1],
        },
        render=lambda d: _series_text(
            d, "Figure 2: arithmetic intensity (flops/byte) vs rank"
        ),
        artifact="fig2_roofline",
    )
)


# ----------------------------------------------------------------------
# Table I — pressure points
# ----------------------------------------------------------------------
def _check_table1(rows: list, params: Mapping[str, Any]) -> None:
    saving = {r["type"]: r["saving_%"] for r in rows}
    assert saving[1] > saving[2] > saving[3] > saving[4]
    assert abs(saving[5]) < 10.0
    assert saving[6] == 0.0


register_benchmark(
    Benchmark(
        name="table1_ppa",
        fn=experiment_table1,
        tags=frozenset({"model", "table"}),
        description="Table I: pressure-point analysis (Poisson3, 1 core)",
        params={"rank": 128},
        # 500k nonzeros is the smallest stand-in at which the Table I
        # saving ordering (type 3 > type 4) still holds.
        quick={"nnz": 500_000},
        check=_check_table1,
        metrics=lambda rows: {
            f"saving_type{r['type']}_%": r["saving_%"] for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Table I: pressure points (modeled)"
        ),
        artifact="table1_ppa",
    )
)


# ----------------------------------------------------------------------
# Table II — data sets
# ----------------------------------------------------------------------
def _check_table2(rows: list, params: Mapping[str, Any]) -> None:
    assert len(rows) == 7
    for row in rows:
        assert row["splatt_MiB"] < row["coo_MiB"]
        assert 0 < row["fibers_per_nnz"] <= 1.0


register_benchmark(
    Benchmark(
        name="table2_datasets",
        fn=experiment_table2,
        tags=frozenset({"table"}),
        description="Table II: data-set inventory + memory footprint",
        check=_check_table2,
        metrics=lambda rows: {
            f"splatt_MiB_{r['name']}": r["splatt_MiB"] for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Table II: data sets (paper vs stand-in)"
        ),
        artifact="table2_datasets",
    )
)


# ----------------------------------------------------------------------
# Figure 4 — RankB sweep
# ----------------------------------------------------------------------
def _check_fig4(data: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    p2 = data["series"]["poisson2"]
    p3 = data["series"]["poisson3"]
    assert min(p2) >= 0.95
    assert max(p2) > 1.5
    assert p2.index(max(p2)) not in (0,)
    peak3 = p3.index(max(p3))
    assert 0 < peak3 < len(p3) - 1
    assert p3[-1] < max(p3)


register_benchmark(
    Benchmark(
        name="fig4_rankb_sweep",
        fn=experiment_fig4,
        tags=frozenset({"model", "figure"}),
        description="Figure 4: relative performance vs RankB blocks (R=512)",
        check=_check_fig4,
        metrics=lambda d: {
            f"peak_perf_{name}": max(vals) for name, vals in d["series"].items()
        },
        render=lambda d: _series_text(
            d,
            "Figure 4: relative performance vs RankB blocks (R=512, baseline=1.0)",
        ),
        artifact="fig4_rankb_sweep",
    )
)


# ----------------------------------------------------------------------
# Figure 5 — MB grid sweeps (both subfigures in one registration)
# ----------------------------------------------------------------------
def _grid_counts(grid: str) -> tuple[int, ...]:
    return tuple(int(g) for g in grid.split("x"))


def _check_fig5(result: Mapping[str, list], params: Mapping[str, Any]) -> None:
    if "poisson2" in result:
        perf = {r["grid"]: r["relative_perf"] for r in result["poisson2"]}
        mode2_only = [
            v
            for g, v in perf.items()
            if _grid_counts(g)[0] == 1
            and _grid_counts(g)[2] == 1
            and _grid_counts(g)[1] > 1
        ]
        assert max(mode2_only) > 1.2
        assert perf["16x16x16"] < 1.0 or perf["32x1x32"] < 1.0
        assert max(mode2_only) > perf["8x1x1"]
    if "poisson3" in result:
        perf = {r["grid"]: r["relative_perf"] for r in result["poisson3"]}
        assert max(perf["1x10x5"], perf["1x10x1"]) > 1.05
        assert perf["1x10x1"] >= max(perf["10x1x1"], perf["1x1x10"]) - 0.02


def _render_fig5(result: Mapping[str, list]) -> dict[str, str]:
    sub = {"poisson2": "5a", "poisson3": "5b"}
    return {
        f"fig{sub.get(name, '5')}_{name}": render_rows(
            rows, title=f"Figure {sub.get(name, '5')}: {name} MB grids (R=512)"
        )
        for name, rows in result.items()
    }


register_benchmark(
    Benchmark(
        name="fig5_mb_sweep",
        fn=suites.experiment_fig5_suite,
        tags=frozenset({"model", "figure"}),
        description="Figure 5a/5b: relative performance per MB grid (R=512)",
        check=_check_fig5,
        metrics=lambda result: {
            f"peak_perf_{name}": max(r["relative_perf"] for r in rows)
            for name, rows in result.items()
        },
        render=_render_fig5,
        artifact="fig5_mb_sweep",
    )
)


# ----------------------------------------------------------------------
# Figure 6 — technique speedups, all six data sets in one registration
# ----------------------------------------------------------------------
_FIG6_SMALL = ("poisson2", "poisson3", "nell2")


def _check_fig6(result: Mapping[str, Mapping], params: Mapping[str, Any]) -> None:
    ranks = tuple(params.get("ranks", suites.FIG6_RANKS))
    for dataset, data in result.items():
        combo = data["series"]["MB+RankB"]
        mb = data["series"]["MB"]
        rankb = data["series"]["RankB"]
        for c, m, r in zip(combo, mb, rankb):
            assert c >= max(m, r) - 0.05, dataset
        assert min(combo) > 0.95, dataset
        if max(ranks) >= 512:
            assert max(combo) > 1.3, dataset
        if dataset in _FIG6_SMALL:
            assert combo[-1] >= 0.75 * max(combo), dataset


def _render_fig6(result: Mapping[str, Mapping]) -> dict[str, str]:
    from repro.bench.ascii_plot import bar_chart

    out = {}
    for name, data in result.items():
        text = _series_text(data, f"Figure 6 ({name}): speedup over SPLATT")
        text += "\n\n" + bar_chart(
            data["x_values"],
            {"MB+RankB": data["series"]["MB+RankB"]},
            title="MB+RankB speedup by rank ('|' = baseline 1.0x)",
            reference=1.0,
        )
        out[f"fig6_{name}"] = text
    return out


register_benchmark(
    Benchmark(
        name="fig6_speedup",
        fn=suites.experiment_fig6_suite,
        tags=frozenset({"model", "figure"}),
        description="Figure 6: MB/RankB/MB+RankB speedups across ranks",
        quick={"ranks": (16, 1024)},
        check=_check_fig6,
        metrics=lambda result: {
            f"peak_speedup_{name}": max(data["series"]["MB+RankB"])
            for name, data in result.items()
        },
        render=_render_fig6,
        artifact="fig6_speedup",
    )
)


# ----------------------------------------------------------------------
# Table III — distributed strong scaling
# ----------------------------------------------------------------------
def _check_table3(result: Mapping[str, list], params: Mapping[str, Any]) -> None:
    node_counts = list(params.get("node_counts", suites.TABLE3_NODES))
    for dataset, rows in result.items():
        assert [r["nodes"] for r in rows] == node_counts, dataset
        splatt = [r["splatt_ms"] for r in rows]
        ours = [min(r["3d_ms"], r["4d_ms"]) for r in rows]
        assert splatt == sorted(splatt, reverse=True), dataset
        assert ours == sorted(ours, reverse=True), dataset
        for r in rows:
            assert min(r["3d_ms"], r["4d_ms"]) <= r["splatt_ms"] * 1.02, dataset
        if node_counts[-1] >= 64:
            last = rows[-1]
            assert last["4d_ms"] <= last["3d_ms"], dataset
            speedup = splatt[-1] / ours[-1]
            assert 1.2 < speedup < 3.0, dataset


register_benchmark(
    Benchmark(
        name="table3_distributed",
        fn=suites.experiment_table3_suite,
        tags=frozenset({"dist", "table"}),
        description="Table III: distributed strong scaling, SPLATT vs 3D vs 4D",
        quick={"datasets": ("nell2",), "node_counts": (1, 4, 16), "nnz": 400_000},
        check=_check_table3,
        metrics=lambda result: {
            f"last_speedup_{name}": float(rows[-1]["speedup"].rstrip("x"))
            for name, rows in result.items()
        },
        render=lambda result: {
            f"table3_{name}": render_rows(
                rows, title=f"Table III ({name}): distributed times"
            )
            for name, rows in result.items()
        },
        artifact="table3_distributed",
    )
)


# ----------------------------------------------------------------------
# Kernel wall-clock (the one real-time measurement; setup outside clock)
# ----------------------------------------------------------------------
def _check_kernels(rows: list, params: Mapping[str, Any]) -> None:
    assert len(rows) == len(suites.KERNEL_PARAMS) + 1
    for row in rows:
        assert row["finite"], row["kernel"]
        assert row["min_ms"] >= 0.0


register_benchmark(
    Benchmark(
        name="kernels_wallclock",
        fn=suites.run_kernels_wallclock,
        setup=suites.setup_kernels_wallclock,
        tags=frozenset({"kernel", "supplementary"}),
        description="Real wall-clock of all vectorized kernels on this host",
        params={"nnz": 200_000, "rank": 64, "inner_k": 3},
        quick={"nnz": 50_000, "inner_k": 1},
        check=_check_kernels,
        model_info=suites.model_info_kernels,
        render=lambda rows: render_rows(
            rows, title="Kernel wall-clock (min over inner repeats)"
        ),
        artifact="kernels_wallclock",
    )
)


# ----------------------------------------------------------------------
# Thread scaling (measured through repro.exec vs the model's prediction)
# ----------------------------------------------------------------------
def _check_parallel(rows: list, params: Mapping[str, Any]) -> None:
    import os

    by_t = {r["threads"]: r for r in rows}
    assert 1 in by_t
    for row in rows:
        # The executor must stay bitwise-equal to the single-thread run
        # regardless of how many workers the sweep used.
        assert row["equal_to_serial"], row["threads"]
        assert row["measured_ms"] >= 0.0, row["threads"]
        assert row["predicted_ms"] > 0.0, row["threads"]
        assert row["predicted_imbalance"] >= 1.0, row["threads"]
    if 2 in by_t:
        assert by_t[2]["predicted_speedup"] > 1.0
    # Measured speedups are only meaningful on real parallel hardware;
    # single-core CI runners still exercise every structural property
    # above (and the bitwise-equality pin) without gating on wall-clock.
    if 4 in by_t and (os.cpu_count() or 1) >= 4:
        assert by_t[4]["measured_speedup"] >= 1.5, by_t[4]


register_benchmark(
    Benchmark(
        name="parallel_scaling",
        fn=suites.run_parallel_scaling,
        setup=suites.setup_parallel_scaling,
        tags=frozenset({"kernel", "model", "parallel", "supplementary"}),
        description="Measured executor thread sweep vs modeled makespan",
        params={"nnz": 120_000, "rank": 48, "inner_k": 3, "max_threads": None},
        quick={"nnz": 30_000, "rank": 32, "inner_k": 2},
        check=_check_parallel,
        # Only the model-side columns are deterministic across hosts;
        # measured wall-clock never goes into drift-gated metrics.
        metrics=lambda rows: {
            f"predicted_speedup{r['threads']}": r["predicted_speedup"]
            for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Thread scaling: measured executor vs model"
        ),
        artifact="parallel_scaling",
    )
)


# ----------------------------------------------------------------------
# Sensitivity
# ----------------------------------------------------------------------
def _check_sensitivity(rows: list, params: Mapping[str, Any]) -> None:
    for row in rows:
        assert row["table1_order_ok"], row
        assert row["fig4_sweet_spot_ok"], row


register_benchmark(
    Benchmark(
        name="sensitivity",
        fn=suites.experiment_sensitivity,
        tags=frozenset({"model", "ablation"}),
        description="Robustness of headline conclusions to calibrated knobs",
        quick={"l3_ratios": (1.5, 3.0)},
        check=_check_sensitivity,
        metrics=lambda rows: {
            f"fig4_peak_perf_r{str(r['l3_ratio']).replace('.', '_')}": r[
                "fig4_peak_perf"
            ]
            for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Sensitivity: L3 gather-bandwidth ratio"
        ),
        artifact="sensitivity",
    )
)


# ----------------------------------------------------------------------
# Higher-order CSF
# ----------------------------------------------------------------------
def _check_csf_higher(data: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    s = data["series"]["blocked CSF vs CSF"]
    assert s[-1] > 1.2
    assert s[-1] >= s[0]


register_benchmark(
    Benchmark(
        name="csf_higher_order",
        fn=suites.experiment_csf_higher_order,
        tags=frozenset({"kernel", "model", "supplementary"}),
        description="4-mode blocked CSF vs unblocked CSF speedup",
        check=_check_csf_higher,
        metrics=lambda d: {
            "final_speedup": d["series"]["blocked CSF vs CSF"][-1]
        },
        render=lambda d: _series_text(d, "Higher-order (4-mode) blocking speedup"),
        artifact="csf_higher_order",
    )
)


# ----------------------------------------------------------------------
# Decomposition comparison
# ----------------------------------------------------------------------
def _check_decomposition(rows: list, params: Mapping[str, Any]) -> None:
    procs = tuple(params.get("procs", (4, 16, 64)))
    by = {(r["procs"], r["scheme"]): r for r in rows}
    first, last = procs[0], procs[-1]
    growth = (last / first) / 2.0
    assert (
        by[(last, "coarse")]["comm_KiB"] > growth * by[(first, "coarse")]["comm_KiB"]
    )
    if last >= 64:
        # Medium-grained only overtakes coarse once replication dominates.
        assert by[(last, "medium")]["time_ms"] < by[(last, "coarse")]["time_ms"]
        assert by[(last, "4D")]["time_ms"] <= by[(last, "medium")]["time_ms"] * 1.05


register_benchmark(
    Benchmark(
        name="decomposition_comparison",
        fn=suites.experiment_decomposition,
        tags=frozenset({"dist", "supplementary"}),
        description="Coarse vs medium-grained vs 4D decompositions",
        check=_check_decomposition,
        metrics=lambda rows: {
            f"time_ms_{r['scheme']}_p{r['procs']}": r["time_ms"] for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Decomposition comparison (nell2, R=128)"
        ),
        artifact="decomposition_comparison",
    )
)


# ----------------------------------------------------------------------
# Real process-backend strong scaling (lower-bound gated)
# ----------------------------------------------------------------------
def _check_dist_real(rows: list, params: Mapping[str, Any]) -> None:
    counts = list(params.get("rank_counts", (1, 2, 4)))
    assert [r["ranks"] for r in rows] == counts
    for r in rows:
        # The whole point of the process backend: bitwise sim parity and
        # measured bytes exactly matching the CommLedger accounting.
        assert r["bitwise_equal"], r
        assert r["comm_bytes"] == r["measured_bytes"] == r["sim_bytes"], r
        assert 0.0 < r["attained_fraction"] <= 1.0, r
        if r["ranks"] == 1:
            assert r["measured_bytes"] == 0, r
            assert r["attained_fraction"] == 1.0, r
        else:
            assert r["measured_bytes"] >= r["bound_bytes"], r


register_benchmark(
    Benchmark(
        name="dist_strong_scaling_real",
        fn=suites.experiment_dist_strong_scaling_real,
        setup=suites.setup_dist_strong_scaling_real,
        teardown=suites.teardown_dist_strong_scaling_real,
        tags=frozenset({"dist", "supplementary"}),
        description=(
            "Process-backend strong scaling: bitwise sim parity, measured "
            "bytes vs the BKR communication lower bound"
        ),
        quick={"nnz": 12_000, "rank": 8},
        check=_check_dist_real,
        metrics=lambda rows: {
            **{
                f"comm_bytes_p{r['ranks']}": float(r["comm_bytes"])
                for r in rows
            },
            **{
                f"attained_fraction_p{r['ranks']}": r["attained_fraction"]
                for r in rows
                if r["ranks"] > 1
            },
        },
        render=lambda rows: render_rows(
            rows,
            title="Distributed strong scaling (process backend, measured)",
        ),
        artifact="dist_strong_scaling_real",
    )
)


# ----------------------------------------------------------------------
# Ablations
# ----------------------------------------------------------------------
def _check_heuristic(rows: list, params: Mapping[str, Any]) -> None:
    for row in rows:
        assert row["gap_%"] < 25.0
        assert row["heuristic_evals"] < row["exhaustive_evals"] / 3


register_benchmark(
    Benchmark(
        name="ablation_heuristic",
        fn=suites.experiment_ablation_heuristic,
        tags=frozenset({"model", "ablation"}),
        description="Section V-C greedy heuristic vs exhaustive search",
        quick={
            "datasets": ("poisson2",),
            "counts_axis": (1, 2, 4, 8),
            "rb_axis": (None, 32, 128),
        },
        check=_check_heuristic,
        metrics=lambda rows: {
            f"gap_pct_{r['dataset']}": r["gap_%"] for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Ablation: V-C heuristic vs exhaustive search"
        ),
        artifact="ablation_heuristic",
    )
)


def _check_model(rows: list, params: Mapping[str, Any]) -> None:
    for row in rows:
        assert abs(row["alpha_B_analytic"] - row["alpha_B_exact"]) < 0.15
        assert row["speedup"] > 10


register_benchmark(
    Benchmark(
        name="ablation_model",
        fn=suites.experiment_ablation_model,
        tags=frozenset({"model", "ablation"}),
        description="Analytic traffic model vs exact LRU cache simulation",
        check=_check_model,
        metrics=lambda rows: {
            f"alpha_B_analytic_{r['kernel']}": r["alpha_B_analytic"] for r in rows
        },
        render=lambda rows: render_rows(
            rows, title="Ablation: analytic traffic model vs exact LRU"
        ),
        artifact="ablation_model",
    )
)


def _check_regblock(rows: list, params: Mapping[str, Any]) -> None:
    by_config = {r["config"]: r for r in rows}
    for n in params.get("strip_counts", (1, 4, 16)):
        on = by_config[f"RankB n={n}, RegB on"]
        off = by_config[f"RankB n={n}, RegB off"]
        assert on["load_ms"] < off["load_ms"]
        assert on["total_ms"] < off["total_ms"]


register_benchmark(
    Benchmark(
        name="ablation_regblock",
        fn=suites.experiment_ablation_regblock,
        tags=frozenset({"model", "ablation"}),
        description="Register blocking on/off inside rank blocking",
        check=_check_regblock,
        metrics=lambda rows: {
            f"total_ms_{i}": r["total_ms"] for i, r in enumerate(rows)
        },
        render=lambda rows: render_rows(
            rows, title="Ablation: register blocking on/off"
        ),
        artifact="ablation_regblock",
    )
)


# ----------------------------------------------------------------------
# Observability: tracer overhead + end-to-end float32
# ----------------------------------------------------------------------
def _check_tracer_overhead(d: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    # The acceptance gate: a disabled tracer must stay within 5% of the
    # uninstrumented kernel (min-of-k timings; a 50us absolute floor keeps
    # the ratio meaningful when the quick tier's kernel time is tiny).
    floor_s = 50e-6
    raw_s = d["raw_ms"] / 1e3
    disabled_s = d["disabled_ms"] / 1e3
    assert disabled_s <= raw_s * 1.05 + floor_s, (
        f"disabled tracer overhead {d['disabled_overhead_pct']}% "
        f"(raw {d['raw_ms']}ms, disabled {d['disabled_ms']}ms)"
    )
    # The enabled tracer must have actually recorded the kernel calls.
    assert d["enabled_spans"] >= 1
    assert d["enabled_nnz_counted"] == d["nnz"] * d["enabled_spans"]


register_benchmark(
    Benchmark(
        name="tracer_overhead_splatt",
        fn=suites.experiment_tracer_overhead,
        tags=frozenset({"kernel", "supplementary"}),
        description="repro.obs hook cost on SPLATT: raw vs disabled vs enabled",
        params={"nnz": 200_000, "rank": 32, "inner_k": 7},
        quick={"nnz": 50_000, "inner_k": 5},
        check=_check_tracer_overhead,
        # Wall-clock-derived percentages are host noise; only the
        # structural counts are drift-gated.
        metrics=lambda d: {
            "enabled_spans": d["enabled_spans"],
            "nnz": d["nnz"],
        },
        render=lambda d: render_rows(
            [d], title="Tracer overhead on SPLATT (min-of-k, interleaved)"
        ),
        artifact="tracer_overhead_splatt",
    )
)


def _check_cpd_float32(d: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    assert d["value_dtype"] == "float32"
    # The whole model must stay float32 — any float64 here means a layer
    # silently upcast (the bug class this benchmark pins down).
    assert d["factor_dtypes"] == ["float32"], d["factor_dtypes"]
    assert d["fit_finite"]
    assert d["fit"] > 0.0
    assert d["fit"] >= d["first_fit"] - 1e-3  # monotone up to float32 noise


register_benchmark(
    Benchmark(
        name="cpd_float32",
        fn=suites.experiment_cpd_float32,
        tags=frozenset({"cpd", "supplementary"}),
        description="End-to-end float32 CP-ALS: converges with no upcast",
        params={"nnz": 30_000, "rank": 16, "n_iters": 10},
        quick={"nnz": 8_000, "n_iters": 5},
        check=_check_cpd_float32,
        metrics=lambda d: {"fit": d["fit"], "n_iters": d["n_iters"]},
        render=lambda d: render_rows(
            [d], title="End-to-end float32 CP-ALS"
        ),
        artifact="cpd_float32",
    )
)


# ----------------------------------------------------------------------
# Serve tier — open-loop latency/throughput and warm-cache amortization
# ----------------------------------------------------------------------
def _check_serve_openloop(d: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    # Every admitted job must complete (the queue is sized for the
    # arrival schedule) and every completion must verify bitwise
    # against a direct serial kernel execution.
    assert d["n_completed"] == d["n_sent"], d
    assert d["n_errors"] == 0, d["errors_by_code"]
    assert d["n_verify_failed"] == 0, d
    assert d["n_verified"] == d["n_completed"], d
    assert d["drained"] and d["drain_queue_depth"] == 0, d
    assert d["dtypes"] == ["float32", "float64"], d["dtypes"]
    # Four signatures in the mix: tuning runs at most once per
    # (signature, dtype); everything else must come from the warm cache.
    assert d["warm_misses"] <= d["n_signatures"], d
    assert d["latency_ms"]["p99"] >= d["latency_ms"]["p50"] > 0.0, d


register_benchmark(
    Benchmark(
        name="serve_openloop",
        fn=suites.experiment_serve_openloop,
        tags=frozenset({"serve", "parallel", "supplementary"}),
        description=(
            "Open-loop mixed f32/f64 load on repro.serve: p50/p95/p99, "
            "throughput, bitwise verification, graceful drain"
        ),
        params={"rate_hz": 120.0, "n_requests": 120, "n_clients": 2},
        quick={"rate_hz": 80.0, "n_requests": 48},
        check=_check_serve_openloop,
        # Wall-clock latencies are host noise; drift-gate only the
        # structural outcome counts.
        metrics=lambda d: {
            "n_completed": d["n_completed"],
            "n_errors": d["n_errors"],
            "n_verified": d["n_verified"],
        },
        render=lambda d: render_rows(
            [
                {
                    "sent": d["n_sent"],
                    "completed": d["n_completed"],
                    "errors": d["n_errors"],
                    "verified": d["n_verified"],
                    "p50_ms": round(d["latency_ms"]["p50"], 3),
                    "p95_ms": round(d["latency_ms"]["p95"], 3),
                    "p99_ms": round(d["latency_ms"]["p99"], 3),
                    "jobs_per_s": round(d["throughput_jobs_s"], 1),
                    "batches": d["batches"],
                    "warm_hits": d["warm_hits"],
                    "queue_peak": d["queue_peak_depth"],
                }
            ],
            title="Open-loop serve load (mixed f32/f64, verified bitwise)",
        ),
        artifact="serve_openloop",
    )
)


def _check_serve_warm_cache(d: Mapping[str, Any], params: Mapping[str, Any]) -> None:
    # Bitwise-stable responses across repeats, exactly one tuning for
    # the f64 signature, and the f32 twin must re-tune (dtype gate).
    assert d["unique_sha64"] == 1, d
    assert d["sha32_differs"], d
    assert d["f32_completed"], d
    assert d["warm_misses"] == 2, d  # one per dtype
    assert d["warm_hits"] == d["n_repeats"] - 1, d
    assert d["warm_entries"] == 2, d
    assert d["completed"] == d["n_repeats"] + 1, d


register_benchmark(
    Benchmark(
        name="serve_warm_cache",
        fn=suites.experiment_serve_warm_cache,
        tags=frozenset({"serve", "supplementary"}),
        description=(
            "Warm-config amortization on repro.serve: tune once per "
            "(signature, dtype), hit the LRU thereafter"
        ),
        params={"n_repeats": 12},
        quick={"n_repeats": 6},
        check=_check_serve_warm_cache,
        metrics=lambda d: {
            "warm_misses": d["warm_misses"],
            "warm_hits": d["warm_hits"],
            "completed": d["completed"],
        },
        render=lambda d: render_rows(
            [d], title="Serve warm-config cache amortization"
        ),
        artifact="serve_warm_cache",
    )
)
