"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``   structural report of a data set or ``.tns`` file
``diagnose``  machine-model performance report for one configuration
``tune``      run the Section V-C autotuner (optionally with a cache file)
``ppa``       the Table I pressure-point analysis
``cpd``       CP-ALS decomposition with any kernel
``scaling``   the Table III distributed strong-scaling experiment
``datasets``  list the Table II registry
``check``     static analysis: parse errors, schedule races, hot-path
              lint, and (``--plans``) plan-soundness verification
              (see docs/static-analysis.md)
``sanitize``  instrumented kernel execution: write-set containment, gather
              bounds, NaN/Inf, dtype drift, traffic-footprint cross-check
``bench``     unified benchmark harness: ``run`` the registered
              experiments (``--quick`` smoke tier, ``--filter``,
              ``--json``, ``--trace``; ``--artifacts`` renders the
              paper's tables and figures under ``benchmarks/results/``),
              ``compare`` two result files with regression gating,
              ``list`` the registry (see docs/benchmarking.md)
``trace``     run a CPD experiment under the ``repro.obs`` tracer and
              write Perfetto-loadable chrome-trace JSON
              (see docs/observability.md)

Every tensor-consuming command accepts ``--dataset <name>`` (a Table II
stand-in) or ``--tns <path>`` (a FROSTT text file).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.tensor import analyze, load_dataset, load_tns
from repro.tensor.datasets import DATASETS
from repro.util.formatting import format_seconds, format_table


def _add_tensor_args(parser: argparse.ArgumentParser) -> None:
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", choices=sorted(DATASETS), help="Table II stand-in")
    src.add_argument("--tns", help="FROSTT .tns file")
    parser.add_argument("--nnz", type=int, help="stand-in nonzero override")
    parser.add_argument("--seed", type=int, default=0)


def _load_tensor(args: argparse.Namespace):
    if args.tns:
        return load_tns(args.tns)
    return load_dataset(args.dataset, seed=args.seed, nnz=args.nnz)


def _machine_for(args: argparse.Namespace, cores: int = 10):
    from repro.machine import power8, power8_socket

    base = power8_socket() if cores == 10 else power8(cores)
    if args.dataset:
        return base.scaled(DATASETS[args.dataset].machine_scale)
    return base


# ----------------------------------------------------------------------
def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [
        [
            info.name,
            "x".join(str(d) for d in info.paper_dims),
            info.paper_nnz,
            "x".join(str(d) for d in info.standin_dims),
            info.kind,
            f"1/{round(1 / info.machine_scale):d}" if info.machine_scale < 1 else "1",
        ]
        for info in DATASETS.values()
    ]
    print(
        format_table(
            ["name", "paper dims", "paper nnz", "stand-in dims", "kind", "scale"],
            rows,
            title="Table II data sets",
        )
    )
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    tensor = _load_tensor(args)
    print(analyze(tensor).render())
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.blocking import RankBlocking
    from repro.perf import performance_report, prepare_plan

    tensor = _load_tensor(args)
    machine = _machine_for(args)
    rb = (
        RankBlocking(block_cols=args.strip_cols)
        if args.strip_cols
        else None
    )
    counts = tuple(args.blocks) if args.blocks else None
    plan = prepare_plan(tensor, args.mode, counts, rb)
    print(performance_report(plan, args.rank, machine).render())
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    import os

    from repro.tune import Tuner, TuningCache

    tensor = _load_tensor(args)
    machine = _machine_for(args)
    cache = None
    if args.cache:
        cache = (
            TuningCache.load(args.cache)
            if os.path.exists(args.cache)
            else TuningCache()
        )
    tuner = Tuner(tensor, args.mode, machine, cache=cache)
    cfg = tuner.get_or_tune(args.rank, strategy=args.strategy)
    grid = "x".join(map(str, cfg.block_counts)) if cfg.block_counts else "-"
    strips = (
        str(cfg.rank_blocking.resolve_block_cols(args.rank))
        if cfg.rank_blocking
        else "-"
    )
    print(
        format_table(
            ["rank", "speedup", "MB grid", "strip cols", "evals", "source"],
            [
                [
                    args.rank,
                    f"{cfg.speedup:.2f}x",
                    grid,
                    strips,
                    cfg.n_evaluations,
                    "cache" if cfg.from_cache else cfg.strategy,
                ]
            ],
            title="tuned configuration",
        )
    )
    if args.threads:
        counts = []
        t = 1
        while t < args.threads:
            counts.append(t)
            t *= 2
        counts.append(args.threads)
        tuned = tuner.tune_threads(
            args.rank,
            tuple(dict.fromkeys(counts)),
            block_counts=cfg.block_counts,
            rank_blocking=cfg.rank_blocking,
        )
        print(
            format_table(
                ["threads", "modeled makespan"],
                [
                    [t, format_seconds(m)]
                    for t, m in sorted(tuned.makespans.items())
                ],
                title=(
                    f"thread sweep (best: {tuned.n_threads} threads, "
                    f"{tuned.speedup:.2f}x over serial)"
                ),
            )
        )
    if cache is not None:
        cache.save(args.cache)
        print(f"cache: {args.cache} ({len(cache)} entries)")
    return 0


def cmd_ppa(args: argparse.Namespace) -> int:
    from repro.kernels import get_kernel
    from repro.perf import run_ppa

    tensor = _load_tensor(args)
    machine = _machine_for(args, cores=1)
    plan = get_kernel("splatt").prepare(tensor, args.mode)
    rows = [
        [r.type_id, format_seconds(r.time), f"{r.saving * 100:.1f}%", r.description]
        for r in run_ppa(plan, args.rank, machine)
    ]
    print(
        format_table(
            ["type", "exec time", "saving", "description"],
            rows,
            title=f"pressure points (rank {args.rank}, single core)",
        )
    )
    return 0


def cmd_cpd(args: argparse.Namespace) -> int:
    from repro.cpd import cp_als

    tensor = _load_tensor(args)
    res = cp_als(
        tensor,
        args.rank,
        n_iters=args.iters,
        kernel=args.kernel,
        seed=args.seed,
    )
    print(
        f"CP-ALS ({args.kernel}): fit {res.final_fit:.4f} after "
        f"{res.n_iters} iterations (converged={res.converged})"
    )
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run a CPD experiment under the runtime tracer (``repro trace``).

    Writes a Chrome-trace JSON (load it in Perfetto / ``chrome://tracing``)
    and prints the span/counter summary; ``--metrics`` additionally writes
    the flat versioned metrics document.
    """
    from repro.obs import (
        Tracer,
        summarize_text,
        use_tracer,
        write_chrome_trace,
        write_metrics_doc,
    )

    from repro.cpd import cp_als

    tensor = _load_tensor(args)
    tracer = Tracer()
    with use_tracer(tracer):
        res = cp_als(
            tensor,
            args.rank,
            n_iters=args.iters,
            kernel=args.kernel,
            seed=args.seed,
            n_threads=args.threads,
        )

    print(
        f"CP-ALS ({args.kernel}, {args.threads} thread(s)): "
        f"fit {res.final_fit:.4f} after {res.n_iters} iterations"
    )
    print()
    print(summarize_text(tracer))
    write_chrome_trace(tracer, args.out)
    print(f"\nwrote {args.out} ({len(tracer.spans)} spans)")
    if args.metrics:
        write_metrics_doc(tracer, args.metrics)
        print(f"wrote {args.metrics}")
    return 0


def cmd_scaling(args: argparse.Namespace) -> int:
    from repro.dist import network_for_dataset, strong_scaling
    from repro.dist.costmodel import infiniband_edr

    tensor = _load_tensor(args)
    machine = _machine_for(args)
    network = (
        network_for_dataset(DATASETS[args.dataset])
        if args.dataset
        else infiniband_edr()
    )
    points = strong_scaling(
        tensor, args.rank, args.nodes, machine, network=network, seed=args.seed
    )
    rows = [
        [
            p.nodes,
            format_seconds(p.splatt_time),
            p.grid_3d,
            format_seconds(p.time_3d),
            p.grid_4d,
            format_seconds(p.time_4d),
            f"{p.speedup:.2f}x",
        ]
        for p in points
    ]
    print(
        format_table(
            ["nodes", "SPLATT", "3D grid", "3D", "4D grid", "4D", "speedup"],
            rows,
            title=f"strong scaling (rank {args.rank})",
        )
    )
    return 0


def cmd_dist(args: argparse.Namespace) -> int:
    """Run one distributed MTTKRP on both backends (``repro dist``).

    The sim backend models the ranks in-process; the process backend
    shards the same decomposition onto real pinned workers exchanging
    data through shared-memory collectives.  Prints the parity verdict,
    the byte accounting (modeled ledger vs measured), and the attained
    fraction of the Ballard/Knight/Rouse communication lower bound;
    exits nonzero when the backends disagree bitwise or the measured
    bytes diverge from the ledger.
    """
    import json

    import numpy as np

    from repro.dist import (
        ProcessGrid,
        SimCluster,
        attained_fraction,
        distributed_mttkrp,
        medium_grain_decompose,
        mttkrp_comm_lower_bound,
        network_for_dataset,
    )
    from repro.dist.costmodel import infiniband_edr
    from repro.dist.driver import choose_grid
    from repro.util.rng import resolve_rng

    tensor = _load_tensor(args)
    machine = _machine_for(args)
    network = (
        network_for_dataset(DATASETS[args.dataset])
        if args.dataset
        else infiniband_edr()
    )
    n_ranks = args.ranks
    groups = args.rank_groups
    if n_ranks % groups:
        print(f"repro dist: --ranks {n_ranks} not divisible by "
              f"--rank-groups {groups}", file=sys.stderr)
        return 2
    dims = choose_grid(n_ranks // groups, tensor.shape)
    grid = ProcessGrid(dims, groups)
    decomp = medium_grain_decompose(tensor, ProcessGrid(dims), seed=args.seed)
    rng = resolve_rng(args.seed)
    factors = [
        np.ascontiguousarray(
            rng.standard_normal((n, args.rank)), dtype=tensor.values.dtype
        )
        for n in tensor.shape
    ]
    sim = distributed_mttkrp(
        decomp, factors, args.mode, machine,
        SimCluster(grid.n_ranks, network), rank_groups=groups,
    )
    proc = distributed_mttkrp(
        decomp, factors, args.mode, machine,
        rank_groups=groups, backend="process",
    )
    bitwise = bool(np.array_equal(sim.output, proc.output))
    bytes_ok = (
        sim.comm_bytes == proc.comm_bytes == proc.measured_comm_bytes
    )
    itemsize = factors[0].dtype.itemsize
    bound = mttkrp_comm_lower_bound(
        tensor.shape, tensor.nnz, args.rank, grid.n_ranks, itemsize
    )
    frac = attained_fraction(
        tensor.shape, tensor.nnz, args.rank, grid.n_ranks, itemsize,
        proc.measured_comm_bytes,
    )
    report = {
        "grid": proc.grid_label,
        "ranks": grid.n_ranks,
        "mode": args.mode,
        "dtype": str(tensor.values.dtype),
        "bitwise_equal": bitwise,
        "sim_comm_bytes": int(sim.comm_bytes),
        "ledger_comm_bytes": int(proc.comm_bytes),
        "measured_comm_bytes": int(proc.measured_comm_bytes),
        "bound_bytes": round(bound, 1),
        "attained_fraction": round(frac, 4),
        "sim_time_s": sim.total_time,
        "measured_comm_s": float(proc.comm_seconds.max()),
        "measured_compute_s": float(proc.compute_times.max()),
    }
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    rows = [
        ["sim", sim.grid_label, format_seconds(sim.total_time),
         f"{sim.comm_bytes:.0f}", "modeled"],
        ["process", proc.grid_label,
         format_seconds(report["measured_comm_s"]
                        + report["measured_compute_s"]),
         f"{proc.measured_comm_bytes:.0f}", "measured"],
    ]
    print(format_table(
        ["backend", "grid", "time", "comm bytes", "kind"],
        rows,
        title=f"distributed MTTKRP (mode {args.mode}, rank {args.rank}, "
              f"{tensor.values.dtype})",
    ))
    print(f"bitwise parity: {'OK' if bitwise else 'MISMATCH'}")
    print(f"byte accounting: {'OK' if bytes_ok else 'MISMATCH'} "
          f"(sim {report['sim_comm_bytes']}, ledger "
          f"{report['ledger_comm_bytes']}, measured "
          f"{report['measured_comm_bytes']})")
    print(f"BKR lower bound: {bound:.0f} B, attained fraction {frac:.4f}")
    return 0 if (bitwise and bytes_ok) else 1


def cmd_check(args: argparse.Namespace) -> int:
    """Run the static-analysis passes (``repro check``).

    With no paths the repo's own package is checked (the self-hosted CI
    gate).  ``--race-grid`` additionally runs the symbolic race detector
    on a described blocked schedule.  Exit code 1 when any diagnostic
    survives filtering.
    """
    from pathlib import Path

    from repro.analysis import (
        check_schedule,
        render_json,
        render_sarif,
        render_text,
        resolve_rules,
        run_check,
        write_sets_for_grid,
    )
    from repro.util.errors import ConfigError

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not read as "checked clean" in CI.
        print(f"repro check: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        select = resolve_rules(args.select)
        ignore = resolve_rules(args.ignore)
    except ConfigError as exc:
        # A stale or typo'd rule id is a usage error, like a bad path.
        print(f"repro check: {exc}", file=sys.stderr)
        return 2

    result = run_check(
        paths=args.paths or None,
        select=select,
        ignore=ignore,
        plans=args.plans,
    )
    diags = result.diagnostics

    if args.race_grid:
        from repro.blocking import BlockGrid

        shape = tuple(args.race_shape) if args.race_shape else None
        if shape is None:
            # Without a tensor shape, analyze the block-index space itself.
            shape = tuple(args.race_grid)
        grid = BlockGrid(shape, args.race_grid)
        report = check_schedule(
            write_sets_for_grid(grid, args.race_mode, parallel=args.race_parallel),
            args.race_mode,
        )
        race_diags = report.diagnostics(file=f"<grid {grid!r}>")
        from repro.analysis.diagnostics import filter_rules

        diags = diags + filter_rules(
            race_diags,
            select=resolve_rules(args.select),
            ignore=resolve_rules(args.ignore),
        )
        if args.format == "text":
            print(report.describe())

    if args.format == "json":
        print(render_json(diags, result.files_checked, statistics=args.statistics))
    elif args.format == "sarif":
        print(render_sarif(diags, result.files_checked))
    else:
        print(render_text(diags, result.files_checked, statistics=args.statistics))
    return 1 if diags else 0


def cmd_sanitize(args: argparse.Namespace) -> int:
    """Run one kernel under the execution sanitizer (``repro sanitize``).

    Prepares the requested kernel on the chosen tensor, executes it with
    guarded factor/output arrays, and reports SZ5xx diagnostics.  Exit
    code 1 when any diagnostic is raised — a clean run is the proof that
    the kernel honours its declared write-set and the traffic model's
    access accounting.
    """
    import json as json_mod

    import numpy as np

    from repro.analysis import render_json, render_text
    from repro.analysis.sanitize import sanitized_execute
    from repro.kernels import get_kernel

    tensor = _load_tensor(args)
    mode = args.mode
    params: dict = {}
    if args.blocks:
        params["block_counts"] = tuple(args.blocks)
    if args.rank_blocks:
        params["n_rank_blocks"] = args.rank_blocks
    kernel = get_kernel(args.kernel)
    plan = kernel.prepare(tensor, mode, **params)

    rng = np.random.default_rng(args.seed)
    factors = [
        rng.standard_normal((s, args.rank)) for s in tensor.shape
    ]
    report = sanitized_execute(
        kernel, plan, factors, file=f"<sanitize {args.kernel}>"
    )
    if args.no_traffic:
        report.diagnostics = [
            d for d in report.diagnostics if d.rule != "SZ506"
        ]
    if args.format == "json":
        payload = json_mod.loads(render_json(report.diagnostics, 1))
        payload["sanitize"] = {
            "kernel": args.kernel,
            "mode": mode,
            "rank": args.rank,
            "written_rows": report.written_rows,
            "declared_intervals": len(report.declared_write_set),
            "gathers": {
                k: {"accesses": a, "distinct_rows": d}
                for k, (a, d) in report.gathers.items()
            },
        }
        print(json_mod.dumps(payload, indent=2))
    else:
        print(report.describe())
        if report.diagnostics:
            print(render_text(report.diagnostics, 1))
    return 1 if report.diagnostics else 0


def cmd_bench_list(args: argparse.Namespace) -> int:
    """List the registered benchmarks (``repro bench list``)."""
    import json as json_mod

    from repro.bench import iter_benchmarks

    benches = iter_benchmarks(args.filter)
    if args.format == "json":
        print(
            json_mod.dumps(
                [
                    {
                        "name": b.name,
                        "tags": sorted(b.tags),
                        "description": b.description,
                        "quick_overrides": sorted(b.quick),
                    }
                    for b in benches
                ],
                indent=2,
            )
        )
    else:
        rows = [
            [b.name, ",".join(sorted(b.tags)), b.description] for b in benches
        ]
        print(
            format_table(
                ["name", "tags", "description"],
                rows,
                title=f"registered benchmarks ({len(benches)})",
            )
        )
    return 0


def cmd_bench_run(args: argparse.Namespace) -> int:
    """Execute registered benchmarks and emit the versioned result JSON."""
    import time as time_mod

    from repro.bench import (
        BenchSuiteResult,
        default_result_path,
        iter_benchmarks,
        run_benchmark,
        save_suite,
    )
    from repro.bench.harness import write_artifacts

    benches = iter_benchmarks(args.filter)
    if not benches:
        print(f"repro bench: no benchmark matches {args.filter!r}", file=sys.stderr)
        return 2

    tier = "quick" if args.quick else "full"
    overrides = (
        {"max_threads": args.threads} if getattr(args, "threads", None) else None
    )
    results = []
    failed_checks: list[str] = []
    t_start = time_mod.time()
    for bench in benches:
        t0 = time_mod.time()
        tracer = None
        if getattr(args, "trace", False):
            from repro.obs import Tracer

            tracer = Tracer()  # fresh per benchmark: summaries stay per-run
        result = run_benchmark(
            bench,
            quick=args.quick,
            warmup=args.warmup,
            repeats=args.repeats,
            seed=args.seed,
            run_checks=not args.no_check,
            param_overrides=overrides,
            tracer=tracer,
        )
        results.append(result)
        if not result.check_passed:
            failed_checks.append(bench.name)
        if args.artifacts:
            write_artifacts(bench, result.raw)
        status = result.check if result.check != "skipped" else "-"
        print(
            f"[{time_mod.time() - t_start:6.1f}s] {bench.name:28s} "
            f"min {result.summary.min_s * 1e3:9.2f} ms  "
            f"(n={result.summary.n}, {time_mod.time() - t0:5.1f}s, check: {status})"
        )

    suite = BenchSuiteResult(
        config={
            "tier": tier,
            "repeats": args.repeats,
            "warmup": args.warmup,
            "filter": args.filter,
            "seed": args.seed,
            "checks": not args.no_check,
            "threads": getattr(args, "threads", None),
            "trace": bool(getattr(args, "trace", False)),
        },
        results=results,
    )
    path = args.json or default_result_path()
    save_suite(suite, path)
    print(f"\nwrote {path} ({len(results)} benchmarks, "
          f"{time_mod.time() - t_start:.0f}s total)")
    if failed_checks:
        print(
            "shape checks FAILED: " + ", ".join(failed_checks), file=sys.stderr
        )
        return 1
    return 0


def cmd_bench_compare(args: argparse.Namespace) -> int:
    """Compare two result files; exit nonzero on regression."""
    import os

    from repro.bench import (
        compare_suites,
        load_suite,
        render_comparison_json,
        render_comparison_markdown,
        render_comparison_text,
    )
    from repro.util.errors import FormatError

    try:
        baseline = load_suite(args.baseline)
        current = load_suite(args.current)
    except FormatError as exc:
        print(f"repro bench compare: {exc}", file=sys.stderr)
        return 2

    cmp = compare_suites(
        baseline,
        current,
        threshold=args.threshold,
        metric_rtol=args.metric_rtol,
    )
    if args.format == "json":
        print(render_comparison_json(cmp), end="")
    elif args.format == "markdown":
        print(render_comparison_markdown(cmp), end="")
    else:
        print(render_comparison_text(cmp))

    summary_path = args.github_summary or os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        try:
            with open(summary_path, "a", encoding="utf-8") as fh:
                fh.write(render_comparison_markdown(cmp))
        except OSError as exc:
            print(f"repro bench compare: cannot write summary: {exc}",
                  file=sys.stderr)
    return cmp.exit_code(strict_metrics=args.strict_metrics)


def cmd_serve_run(args: argparse.Namespace) -> int:
    """Run the decomposition service in the foreground
    (``repro serve run``); exits after a client drains it or on Ctrl-C."""
    import asyncio

    from repro.serve import ServeConfig, ServeServer

    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        n_workers=args.workers,
        n_runners=args.runners,
        max_batch=args.max_batch,
        default_deadline_ms=args.deadline_ms,
        warm_entries=args.warm_entries,
        warm_ttl_s=args.warm_ttl,
        warm_admit_after=args.warm_admit_after,
    )

    async def _serve() -> None:
        server = ServeServer(config)
        await server.start()
        print(
            f"repro serve: listening on {config.host}:{server.port} "
            f"(queue={config.queue_limit}, workers={config.n_workers}, "
            f"runners={config.n_runners})",
            flush=True,
        )
        try:
            # A drain op from any client flips the state to stopped.
            while server.state == "serving":
                await asyncio.sleep(0.2)
        except asyncio.CancelledError:
            pass
        if server.state != "stopped":
            await server.drain()
        print("repro serve: drained, exiting", flush=True)

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def cmd_serve_load(args: argparse.Namespace) -> int:
    """Open-loop load against a running server (``repro serve load``);
    exits nonzero when the latency SLO or error budget is violated."""
    import json as json_mod

    from repro.serve import (
        LoadSpec,
        SocketClient,
        default_job_mix,
        run_open_loop,
    )

    mix = default_job_mix(
        nnz=args.nnz, dims=tuple(args.dims), rank=args.rank
    )
    spec = LoadSpec(
        jobs=mix,
        rate_hz=args.rate,
        n_requests=args.requests,
        n_clients=args.clients,
        deadline_ms=args.deadline_ms,
        verify=args.verify,
    )

    def factory() -> SocketClient:
        return SocketClient(args.host, args.port)

    report = run_open_loop(factory, spec)
    d = report.to_dict()

    with SocketClient(args.host, args.port) as probe:
        stats = probe.stats()
        d["server"] = {
            "warm_cache": stats.get("warm_cache"),
            "queue": stats.get("queue"),
            "counters": stats.get("counters"),
        }
        if args.shutdown:
            drain = probe.drain()
            d["drain"] = {
                "drained": bool(drain.get("drained")),
                "queue_depth": drain.get("queue_depth"),
                "completed": drain.get("completed"),
                "warm_cache": drain.get("warm_cache"),
                "phases_ms": drain.get("phases_ms"),
            }

    print(
        format_table(
            ["sent", "completed", "errors", "verified", "p50 ms", "p95 ms",
             "p99 ms", "jobs/s"],
            [[
                d["n_sent"],
                d["n_completed"],
                d["n_errors"],
                d["n_verified"],
                f"{d['latency_ms']['p50']:.2f}",
                f"{d['latency_ms']['p95']:.2f}",
                f"{d['latency_ms']['p99']:.2f}",
                f"{d['throughput_jobs_s']:.1f}",
            ]],
            title="open-loop serve load",
        )
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json_mod.dump(d, fh, indent=2)
        print(f"wrote {args.json}")

    failures = []
    if args.slo_p95_ms is not None and d["latency_ms"]["p95"] > args.slo_p95_ms:
        failures.append(
            f"p95 {d['latency_ms']['p95']:.2f}ms exceeds SLO {args.slo_p95_ms}ms"
        )
    if d["n_errors"] > args.max_errors:
        failures.append(
            f"{d['n_errors']} errors exceed budget {args.max_errors} "
            f"({d['errors_by_code']})"
        )
    if args.verify and (
        d["n_verify_failed"] > 0 or d["n_verified"] != d["n_completed"]
    ):
        failures.append(
            f"bitwise verification failed for {d['n_verify_failed']} job(s)"
        )
    if args.shutdown and not d.get("drain", {}).get("drained"):
        failures.append("graceful drain did not complete")
    for f in failures:
        print(f"repro serve load: FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Blocked sparse MTTKRP reproduction toolkit (IPDPS 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the Table II registry").set_defaults(
        func=cmd_datasets
    )

    p = sub.add_parser("analyze", help="structural report")
    _add_tensor_args(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("diagnose", help="machine-model performance report")
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=128)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument("--blocks", type=int, nargs=3, metavar=("NA", "NB", "NC"))
    p.add_argument("--strip-cols", type=int)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("tune", help="autotune blocking")
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=128)
    p.add_argument("--mode", type=int, default=0)
    p.add_argument(
        "--strategy",
        choices=("heuristic", "exhaustive"),
        default="heuristic",
    )
    p.add_argument("--cache", help="tuning-cache JSON path")
    p.add_argument(
        "--threads",
        type=int,
        help="also sweep thread counts up to N and report the modeled "
        "best for repro.exec.ParallelExecutor",
    )
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("ppa", help="pressure-point analysis (Table I)")
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=128)
    p.add_argument("--mode", type=int, default=0)
    p.set_defaults(func=cmd_ppa)

    p = sub.add_parser("cpd", help="CP decomposition")
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--iters", type=int, default=25)
    p.add_argument("--kernel", default="splatt")
    p.set_defaults(func=cmd_cpd)

    p = sub.add_parser(
        "check",
        help="static analysis: parse errors, schedule races, hot-path lint",
    )
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to check (default: the repro package itself)",
    )
    p.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text"
    )
    p.add_argument("--select", help="only these rule ids/prefixes (e.g. PL,HP301)")
    p.add_argument("--ignore", help="skip these rule ids/prefixes")
    p.add_argument(
        "--plans",
        action="store_true",
        help="also verify literal BlockGrid/RankBlocking/ProcessGrid "
        "constructions in the checked files (rules PL4xx)",
    )
    p.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule-family count summary (RS/HP/PL/SZ/DG)",
    )
    p.add_argument(
        "--race-grid",
        type=int,
        nargs=3,
        metavar=("NA", "NB", "NC"),
        help="also race-check a blocked schedule with this block grid",
    )
    p.add_argument(
        "--race-shape",
        type=int,
        nargs=3,
        metavar=("I", "J", "K"),
        help="tensor shape for --race-grid (default: the grid itself)",
    )
    p.add_argument("--race-mode", type=int, default=0, help="output mode")
    p.add_argument(
        "--race-parallel",
        choices=("blocks", "output"),
        default="blocks",
        help="parallelization axis: every block, or output-mode blocks only",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "sanitize",
        help="instrumented kernel run: write-set, bounds, NaN/Inf, dtype, "
        "traffic-footprint checks (rules SZ5xx)",
    )
    _add_tensor_args(p)
    p.add_argument("--kernel", default="splatt", help="registered kernel name")
    p.add_argument("--mode", type=int, default=0, help="output mode")
    p.add_argument("--rank", type=int, default=16)
    p.add_argument(
        "--blocks",
        type=int,
        nargs="+",
        metavar="N",
        help="per-mode block counts for blocked kernels",
    )
    p.add_argument(
        "--rank-blocks", type=int, help="rank-strip count for RankB kernels"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--no-traffic",
        action="store_true",
        help="skip the SZ506 traffic-footprint comparison",
    )
    p.set_defaults(func=cmd_sanitize)

    p = sub.add_parser(
        "bench",
        help="unified benchmark harness: run / compare / list "
        "(see docs/benchmarking.md)",
    )
    bench_sub = p.add_subparsers(dest="bench_command", required=True)

    b = bench_sub.add_parser("list", help="list registered benchmarks")
    b.add_argument(
        "--filter",
        help="comma-separated name substrings or tags "
        "(kernel,model,dist,cpd,figure,table,ablation,supplementary,parallel)",
    )
    b.add_argument("--format", choices=("text", "json"), default="text")
    b.set_defaults(func=cmd_bench_list)

    b = bench_sub.add_parser(
        "run", help="execute registered benchmarks, write BENCH_*.json"
    )
    b.add_argument("--filter", help="comma-separated name substrings or tags")
    b.add_argument(
        "--quick",
        action="store_true",
        help="smoke tier: reduced parameters, no warmup, one repeat",
    )
    b.add_argument(
        "--repeats", type=int, help="timed repeats (default: 3 full, 1 quick)"
    )
    b.add_argument(
        "--warmup", type=int, help="untimed warmup runs (default: 1 full, 0 quick)"
    )
    b.add_argument(
        "--json",
        metavar="PATH",
        help="result path (default: BENCH_<timestamp>.json)",
    )
    b.add_argument("--seed", type=int, default=0, help="bootstrap-CI seed")
    b.add_argument(
        "--no-check", action="store_true", help="skip the registered shape checks"
    )
    b.add_argument(
        "--artifacts",
        action="store_true",
        help="also write the rendered tables under benchmarks/results/",
    )
    b.add_argument(
        "--threads",
        type=int,
        help="cap the parallel-executor benchmarks at this many threads "
        "(benchmarks without a max_threads knob are unaffected)",
    )
    b.add_argument(
        "--trace",
        action="store_true",
        help="record a repro.obs trace per benchmark (timed repeats only) "
        "and attach its summary to the result JSON; perturbs timings, so "
        "do not compare traced runs against untraced baselines",
    )
    b.set_defaults(func=cmd_bench_run)

    b = bench_sub.add_parser(
        "compare",
        help="compare two BENCH_*.json files; exit 1 on regression",
    )
    b.add_argument("baseline", help="baseline result JSON")
    b.add_argument("current", help="current result JSON")
    b.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="regression gate: current/baseline wall-clock ratio (default 1.25)",
    )
    b.add_argument(
        "--metric-rtol",
        type=float,
        default=0.05,
        help="relative tolerance for deterministic metric drift (default 0.05)",
    )
    b.add_argument(
        "--strict-metrics",
        action="store_true",
        help="metric drift also fails the gate",
    )
    b.add_argument(
        "--format", choices=("text", "json", "markdown"), default="text"
    )
    b.add_argument(
        "--github-summary",
        metavar="PATH",
        help="append the markdown delta table to PATH "
        "(defaults to $GITHUB_STEP_SUMMARY when set)",
    )
    b.set_defaults(func=cmd_bench_compare)

    p = sub.add_parser(
        "serve",
        help="async batched decomposition service: run / load "
        "(see docs/serving.md)",
    )
    serve_sub = p.add_subparsers(dest="serve_command", required=True)

    s = serve_sub.add_parser(
        "run", help="start the NDJSON/TCP server in the foreground"
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument(
        "--port", type=int, default=7457, help="TCP port (0 = ephemeral)"
    )
    s.add_argument(
        "--queue-limit", type=int, default=64, help="admission queue capacity"
    )
    s.add_argument(
        "--workers", type=int, default=2, help="shared MTTKRP pool threads"
    )
    s.add_argument(
        "--runners", type=int, default=2, help="concurrently running batches"
    )
    s.add_argument(
        "--max-batch", type=int, default=8, help="max jobs coalesced per batch"
    )
    s.add_argument(
        "--deadline-ms",
        type=float,
        help="default per-request deadline when a submit names none",
    )
    s.add_argument(
        "--warm-entries", type=int, default=128,
        help="warm config cache LRU size",
    )
    s.add_argument(
        "--warm-ttl", type=float, help="warm config cache TTL in seconds"
    )
    s.add_argument(
        "--warm-admit-after", type=int, default=1,
        help="tunings of a signature before its config is cached",
    )
    s.set_defaults(func=cmd_serve_run)

    s = serve_sub.add_parser(
        "load",
        help="open-loop load generator with latency-SLO gating; "
        "exits nonzero on violation",
    )
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=7457)
    s.add_argument(
        "--rate", type=float, default=80.0, help="arrival rate, jobs/s"
    )
    s.add_argument(
        "--requests", type=int, default=160, help="total arrivals to schedule"
    )
    s.add_argument(
        "--clients", type=int, default=2, help="concurrent client connections"
    )
    s.add_argument(
        "--nnz", type=int, default=2000, help="nonzeros per synthetic tensor"
    )
    s.add_argument(
        "--dims", type=int, nargs="+", default=[48, 40, 44],
        help="synthetic tensor mode lengths",
    )
    s.add_argument("--rank", type=int, default=8)
    s.add_argument(
        "--deadline-ms", type=float, help="per-request deadline to attach"
    )
    s.add_argument(
        "--verify",
        action="store_true",
        help="recompute each completed job serially; compare checksums",
    )
    s.add_argument(
        "--slo-p95-ms",
        type=float,
        help="fail (exit 1) when open-loop p95 latency exceeds this",
    )
    s.add_argument(
        "--max-errors", type=int, default=0,
        help="fail when more jobs than this error",
    )
    s.add_argument(
        "--shutdown",
        action="store_true",
        help="drain the server after the run; fail unless it drains clean",
    )
    s.add_argument("--json", metavar="PATH", help="write the report JSON")
    s.set_defaults(func=cmd_serve_load)

    p = sub.add_parser("scaling", help="distributed strong scaling (Table III)")
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=128)
    p.add_argument(
        "--nodes", type=int, nargs="+", default=[1, 2, 4, 8, 16, 32, 64]
    )
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser(
        "dist",
        help="one distributed MTTKRP on both backends: bitwise parity, "
        "measured vs ledger bytes, BKR lower-bound fraction",
    )
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--ranks", type=int, default=4, help="process count")
    p.add_argument(
        "--rank-groups",
        type=int,
        default=1,
        help="4D rank-dimension replication groups (must divide --ranks)",
    )
    p.add_argument("--mode", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--json", metavar="PATH", help="write the report JSON")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser(
        "trace",
        help="run a CPD experiment under the tracer; write chrome-trace "
        "JSON for Perfetto (see docs/observability.md)",
    )
    _add_tensor_args(p)
    p.add_argument("--rank", type=int, default=8)
    p.add_argument("--iters", type=int, default=5)
    p.add_argument("--kernel", default="splatt")
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        help="parallel-executor workers (>1 adds exec.worker spans)",
    )
    p.add_argument(
        "--out", default="trace.json", metavar="PATH", help="chrome-trace output"
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        help="also write the flat repro-trace-metrics JSON document",
    )
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
