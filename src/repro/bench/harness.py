"""The unified benchmark harness behind ``repro bench``.

Every experiment in ``benchmarks/`` is registered here as a
:class:`Benchmark`: a named, tagged declaration of how to set up, run,
check, and render one experiment, at two parameter tiers (``full`` and
``quick``).  The harness executes registered benchmarks with statistical
rigor — configurable warmup and repeats, :func:`time.perf_counter_ns`
wall-clock through :class:`repro.util.Timer`, MAD-based outlier
rejection, and seeded bootstrap 95% confidence intervals — and returns
:class:`BenchmarkResult` records that :mod:`repro.bench.schema`
serializes into the versioned ``BENCH_<timestamp>.json`` format.

Registration is declarative::

    register_benchmark(Benchmark(
        name="fig4_rankb_sweep",
        fn=experiment_fig4,
        tags=frozenset({"model", "figure"}),
        quick={},                  # already fast enough for the smoke tier
        check=check_fig4,          # raises AssertionError on shape violations
    ))

The ``benchmarks/bench_*.py`` files are thin pytest wrappers over
:func:`run_for_pytest`, so the same declarations drive both ``pytest
benchmarks/`` and ``repro bench run``.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.util.errors import ConfigError
from repro.util.rng import resolve_rng
from repro.util.timer import Timer

#: Tags every registration must draw from (the ISSUE's taxonomy plus the
#: artifact kinds used by ``repro bench list``).
KNOWN_TAGS = frozenset(
    {
        "kernel",
        "model",
        "dist",
        "cpd",
        "figure",
        "table",
        "ablation",
        "supplementary",
        "parallel",
        "serve",
    }
)

#: Tier defaults: (warmup, repeats).
FULL_TIER = ("full", 1, 3)
QUICK_TIER = ("quick", 0, 1)


@dataclass(frozen=True)
class Benchmark:
    """One registered experiment.

    ``fn`` receives the tier's parameters.  When ``setup`` is given, the
    timed region is ``fn(state)`` with ``state = setup(**params)`` built
    outside the clock (use this when tensor/plan construction would
    otherwise dominate the measurement); otherwise the timed region is
    ``fn(**params)`` itself.
    """

    name: str
    fn: Callable[..., Any]
    tags: frozenset[str]
    description: str = ""
    #: Full-tier keyword arguments for ``fn`` (or ``setup``).
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Quick-tier overrides, merged over ``params`` for ``--quick``.
    quick: Mapping[str, Any] = field(default_factory=dict)
    #: Optional untimed state builder: ``setup(**params) -> state``.
    setup: "Callable[..., Any] | None" = None
    #: Optional state finalizer, always called when ``setup`` ran.
    teardown: "Callable[[Any], None] | None" = None
    #: Shape assertions: ``check(result, params)`` raises AssertionError.
    check: "Callable[[Any, Mapping[str, Any]], None] | None" = None
    #: Deterministic scalar metrics extracted from the result payload
    #: (machine-independent; ``repro bench compare`` reports their drift).
    metrics: "Callable[[Any], Mapping[str, float]] | None" = None
    #: Model-side instrumentation: predicted time / cache-sim counters
    #: from :mod:`repro.machine`, computed once per run from the params.
    model_info: "Callable[[Mapping[str, Any]], Mapping[str, float]] | None" = None
    #: Renderer for the human-readable artifact written by the pytest
    #: wrappers under ``benchmarks/results/<artifact>.txt``.
    render: "Callable[[Any], str] | None" = None
    artifact: "str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("benchmark name must be non-empty")
        unknown = self.tags - KNOWN_TAGS
        if unknown:
            raise ConfigError(
                f"benchmark {self.name!r}: unknown tags {sorted(unknown)} "
                f"(known: {sorted(KNOWN_TAGS)})"
            )

    def tier_params(self, quick: bool) -> dict[str, Any]:
        """The effective parameter set for one tier."""
        merged = dict(self.params)
        if quick:
            merged.update(self.quick)
        return merged


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: "dict[str, Benchmark]" = {}


def register_benchmark(bench: Benchmark) -> Benchmark:
    """Add one benchmark to the global registry (duplicate names are a
    configuration error, mirroring ``repro.kernels.register_kernel``)."""
    if bench.name in _REGISTRY:
        raise ConfigError(f"benchmark {bench.name!r} is already registered")
    _REGISTRY[bench.name] = bench
    return bench


def get_benchmark(name: str) -> Benchmark:
    _ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigError(f"unknown benchmark {name!r} (registered: {known})") from None


def iter_benchmarks(filter_expr: "str | None" = None) -> list[Benchmark]:
    """All registered benchmarks, optionally filtered.

    ``filter_expr`` is a comma-separated list of substrings; a benchmark
    matches when any term is a substring of its name or equals one of
    its tags.
    """
    _ensure_registered()
    benches = [_REGISTRY[name] for name in sorted(_REGISTRY)]
    if not filter_expr:
        return benches
    terms = [t.strip() for t in filter_expr.split(",") if t.strip()]
    return [
        b for b in benches if any(t in b.name or t in b.tags for t in terms)
    ]


def _ensure_registered() -> None:
    # The declarations live in repro.bench.registry; importing it once
    # populates _REGISTRY.  Done lazily to avoid import cycles.
    if not _REGISTRY:
        import repro.bench.registry  # noqa: F401


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of one benchmark's wall-clock samples."""

    n: int
    min_s: float
    median_s: float
    mean_s: float
    std_s: float
    ci95_low_s: float
    ci95_high_s: float
    outliers: int

    def as_dict(self) -> dict[str, float]:
        return {
            "n": self.n,
            "min_s": self.min_s,
            "median_s": self.median_s,
            "mean_s": self.mean_s,
            "std_s": self.std_s,
            "ci95_low_s": self.ci95_low_s,
            "ci95_high_s": self.ci95_high_s,
            "outliers": self.outliers,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SampleSummary":
        return cls(
            n=int(d["n"]),
            min_s=float(d["min_s"]),
            median_s=float(d["median_s"]),
            mean_s=float(d["mean_s"]),
            std_s=float(d["std_s"]),
            ci95_low_s=float(d["ci95_low_s"]),
            ci95_high_s=float(d["ci95_high_s"]),
            outliers=int(d["outliers"]),
        )


def reject_outliers(samples: "list[float]") -> "tuple[list[float], int]":
    """Drop samples beyond median + 3 * 1.4826 * MAD (one-sided: only
    slow outliers are rejected — a spuriously *fast* wall-clock sample
    does not exist on a monotonic clock, but a descheduled process
    produces arbitrarily slow ones).

    Quantized quick-tier timings degenerate the MAD: with samples like
    ``[0, 0, 0, 5]`` more than half the values equal the median, MAD is
    exactly zero, and the estimator would keep every sample.  In that
    case the rejection falls back to the mean absolute deviation around
    the median (scaled to the same sigma-equivalent cutoff), which is
    nonzero whenever the samples are not all identical.
    """
    if len(samples) < 3:
        return list(samples), 0
    med = statistics.median(samples)
    mad = statistics.median(abs(s - med) for s in samples)
    if mad == 0.0:
        # MAD breakdown (>=50% of samples sit on the median): fall back
        # to the mean absolute deviation, sigma-scaled for a normal
        # (E|X - mu| = sigma * sqrt(2/pi)).
        mean_ad = statistics.fmean(abs(s - med) for s in samples)
        if mean_ad == 0.0:
            return list(samples), 0  # all samples identical
        cutoff = med + 3.0 * math.sqrt(math.pi / 2.0) * mean_ad
    else:
        cutoff = med + 3.0 * 1.4826 * mad
    kept = [s for s in samples if s <= cutoff]
    return kept, len(samples) - len(kept)


def summarize_samples(
    samples: "list[float]",
    *,
    seed: int = 0,
    n_boot: int = 1000,
) -> SampleSummary:
    """Summary statistics with a seeded bootstrap 95% CI of the median.

    Deterministic for a given sample list and seed (the bootstrap drives
    :func:`repro.util.rng.resolve_rng`), which is what makes ``repro
    bench compare`` reproducible and testable.
    """
    if not samples:
        raise ConfigError("cannot summarize zero samples")
    kept, n_out = reject_outliers(samples)
    med = statistics.median(kept)
    mean = statistics.fmean(kept)
    std = statistics.stdev(kept) if len(kept) > 1 else 0.0
    if len(kept) == 1:
        lo = hi = kept[0]
    else:
        rng = resolve_rng(seed)
        idx = rng.integers(0, len(kept), size=(n_boot, len(kept)))
        medians = sorted(
            statistics.median(kept[i] for i in row) for row in idx
        )
        lo = medians[max(0, math.floor(0.025 * n_boot) - 1)]
        hi = medians[min(n_boot - 1, math.ceil(0.975 * n_boot) - 1)]
    return SampleSummary(
        n=len(samples),
        min_s=min(kept),
        median_s=med,
        mean_s=mean,
        std_s=std,
        ci95_low_s=lo,
        ci95_high_s=hi,
        outliers=n_out,
    )


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchmarkResult:
    """The measured record of one benchmark at one tier."""

    name: str
    tags: tuple[str, ...]
    params: dict[str, Any]
    samples_s: list[float]
    summary: SampleSummary
    metrics: dict[str, float]
    model: "dict[str, float] | None"
    check: str  # "passed" | "failed: <msg>" | "skipped"
    #: Trace summary from an opt-in ``--trace`` run (span/counter totals
    #: as produced by :meth:`repro.obs.Tracer.summary`; ``None`` when the
    #: benchmark ran untraced).
    trace: "dict[str, Any] | None" = None
    #: The raw experiment payload (in-process only; never serialized).
    raw: Any = None

    @property
    def check_passed(self) -> bool:
        return not self.check.startswith("failed")


def run_benchmark(
    bench: Benchmark,
    *,
    quick: bool = False,
    warmup: "int | None" = None,
    repeats: "int | None" = None,
    seed: int = 0,
    run_checks: bool = True,
    clock_ns: "Callable[[], int] | None" = None,
    param_overrides: "Mapping[str, Any] | None" = None,
    tracer: Any = None,
) -> BenchmarkResult:
    """Execute one benchmark: warmup, N timed repeats, stats, checks.

    ``clock_ns`` is injectable for the determinism tests; production use
    leaves it on :func:`time.perf_counter_ns`.  ``param_overrides`` are
    applied over the tier parameters, but only for keys the benchmark's
    tiers already declare — a suite-wide override (the CLI's
    ``--threads``) silently skips benchmarks without the knob.

    When ``tracer`` (a :class:`repro.obs.Tracer`) is given, it is
    installed around the *timed* repeats only — warmup stays untraced —
    and its :meth:`~repro.obs.Tracer.summary` lands on the result's
    ``trace`` field.  Tracing perturbs the wall-clock, so it is opt-in
    and ``--trace`` runs must not be compared against untraced baselines.
    """
    tier, tier_warmup, tier_repeats = QUICK_TIER if quick else FULL_TIER
    warmup = tier_warmup if warmup is None else warmup
    repeats = tier_repeats if repeats is None else repeats
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")
    params = bench.tier_params(quick)
    if param_overrides:
        for key, value in param_overrides.items():
            if key in params:
                params[key] = value
    params_record = dict(params)
    params_record["tier"] = tier

    state = bench.setup(**params) if bench.setup is not None else None
    timer = Timer(clock_ns=clock_ns)
    result: Any = None
    try:
        call = (lambda: bench.fn(state)) if bench.setup is not None else (
            lambda: bench.fn(**params)
        )
        for _ in range(warmup):
            call()
        if tracer is not None:
            from repro.obs.tracer import use_tracer

            with use_tracer(tracer):
                for _ in range(repeats):
                    with timer:
                        result = call()
        else:
            for _ in range(repeats):
                with timer:
                    result = call()
    finally:
        if bench.setup is not None and bench.teardown is not None:
            bench.teardown(state)

    samples = timer.samples
    summary = summarize_samples(samples, seed=seed)

    metrics: dict[str, float] = {}
    if bench.metrics is not None:
        metrics = {k: float(v) for k, v in bench.metrics(result).items()}
    model = None
    if bench.model_info is not None:
        model = {k: float(v) for k, v in bench.model_info(params).items()}

    if bench.check is None or not run_checks:
        check = "skipped"
    else:
        try:
            bench.check(result, params)
            check = "passed"
        except AssertionError as exc:
            check = f"failed: {exc}" if str(exc) else "failed: assertion"

    return BenchmarkResult(
        name=bench.name,
        tags=tuple(sorted(bench.tags)),
        params=_jsonable(params_record),
        samples_s=samples,
        summary=summary,
        metrics=metrics,
        model=model,
        check=check,
        trace=tracer.summary() if tracer is not None else None,
        raw=result,
    )


def _jsonable(obj: Any) -> Any:
    """Coerce params into JSON-clean structures (tuples -> lists...)."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return repr(obj)


# ----------------------------------------------------------------------
# pytest bridge
# ----------------------------------------------------------------------
def run_for_pytest(name: str, benchmark: Any = None) -> Any:
    """Drive one registered benchmark from its thin pytest wrapper.

    Runs the full-tier experiment once (through pytest-benchmark's
    ``pedantic`` timer when the fixture is provided), applies the
    registered shape checks, and writes the rendered artifact under
    ``benchmarks/results/`` exactly as the original standalone scripts
    did.  Returns the experiment result for any extra assertions.
    """
    bench = get_benchmark(name)
    params = bench.tier_params(quick=False)
    state = bench.setup(**params) if bench.setup is not None else None
    try:
        if bench.setup is not None:
            call, args = bench.fn, (state,)
        else:
            call, args = (lambda: bench.fn(**params)), ()
        if benchmark is not None:
            result = benchmark.pedantic(call, args=args, rounds=1, iterations=1)
        else:
            result = call(*args)
    finally:
        if bench.setup is not None and bench.teardown is not None:
            bench.teardown(state)
    for text in write_artifacts(bench, result).values():
        print("\n" + text)
    if bench.check is not None:
        bench.check(result, params)
    return result


def write_artifacts(bench: Benchmark, result: Any) -> dict[str, str]:
    """Render and persist a benchmark's human-readable artifacts.

    ``Benchmark.render`` may return one string (written as
    ``benchmarks/results/<artifact>.txt``) or a mapping of artifact name
    to text for multi-file experiments (Figure 5's subfigures, Figure 6
    and Table III per dataset).  Returns the rendered texts by artifact
    name; empty when the benchmark has no renderer.
    """
    if bench.render is None:
        return {}
    from repro.bench.tables import write_result

    rendered = bench.render(result)
    if isinstance(rendered, str):
        rendered = {bench.artifact or bench.name: rendered}
    for name, text in rendered.items():
        write_result(name, text)
    return dict(rendered)
