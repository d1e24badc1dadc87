"""Tests for the benchmark harness machinery (registry, runner, stats).

The full-size experiments are exercised by ``repro bench run`` and the
``bench-smoke`` CI job; here we test the machinery itself with synthetic
benchmarks and a fake clock, so the suite stays fast and deterministic.
"""

import pytest

from repro.bench import (
    Benchmark,
    iter_benchmarks,
    run_benchmark,
    summarize_samples,
)
from repro.bench.harness import KNOWN_TAGS, reject_outliers
from repro.util.errors import ConfigError


def fake_clock(step_ns=1_000_000):
    """A monotonic fake nanosecond clock advancing ``step_ns`` per call."""
    state = {"t": 0}

    def clock():
        state["t"] += step_ns
        return state["t"]

    return clock


def make_bench(**over):
    kw = dict(
        name="synthetic",
        fn=lambda scale=1: {"value": 21 * scale},
        tags=frozenset({"model"}),
        params={"scale": 2},
        quick={"scale": 1},
    )
    kw.update(over)
    return Benchmark(**kw)


class TestRegistry:
    def test_all_nineteen_registered(self):
        names = [b.name for b in iter_benchmarks()]
        assert len(names) == 19
        assert len(set(names)) == 19
        for expected in (
            "fig2_roofline",
            "table1_ppa",
            "table2_datasets",
            "fig4_rankb_sweep",
            "fig5_mb_sweep",
            "fig6_speedup",
            "table3_distributed",
            "kernels_wallclock",
            "parallel_scaling",
            "sensitivity",
            "csf_higher_order",
            "decomposition_comparison",
            "ablation_heuristic",
            "ablation_model",
            "ablation_regblock",
            "tracer_overhead_splatt",
            "serve_openloop",
            "serve_warm_cache",
            "dist_strong_scaling_real",
        ):
            assert expected in names

    def test_tags_are_known(self):
        for b in iter_benchmarks():
            assert b.tags <= KNOWN_TAGS
            assert b.tags, b.name

    def test_filter_by_tag_and_name(self):
        dist = iter_benchmarks("dist")
        assert {b.name for b in dist} == {
            "table3_distributed",
            "decomposition_comparison",
            "dist_strong_scaling_real",
        }
        assert [b.name for b in iter_benchmarks("fig2")] == ["fig2_roofline"]
        # "ablation" matches the three ablation_* names plus the
        # ablation-tagged sensitivity sweep.
        many = iter_benchmarks("fig2,ablation")
        assert len(many) == 5

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            make_bench(tags=frozenset({"nonsense"}))

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigError):
            make_bench(name="")


class TestTierParams:
    def test_quick_overrides_merge(self):
        b = make_bench(params={"a": 1, "b": 2}, quick={"b": 3})
        assert b.tier_params(quick=False) == {"a": 1, "b": 2}
        assert b.tier_params(quick=True) == {"a": 1, "b": 3}


class TestRunner:
    def test_repeats_produce_samples(self):
        res = run_benchmark(
            make_bench(), repeats=4, warmup=0, clock_ns=fake_clock()
        )
        assert len(res.samples_s) == 4
        assert res.summary.n == 4
        assert res.params["tier"] == "full"
        assert res.params["scale"] == 2
        assert res.raw == {"value": 42}

    def test_quick_tier_params_and_label(self):
        res = run_benchmark(make_bench(), quick=True, clock_ns=fake_clock())
        assert res.params["tier"] == "quick"
        assert res.raw == {"value": 21}

    def test_zero_repeats_rejected(self):
        with pytest.raises(ConfigError):
            run_benchmark(make_bench(), repeats=0)

    def test_check_pass_fail_and_skip(self):
        def failing(result, params):
            assert result["value"] == -1, "wrong value"

        ok = run_benchmark(
            make_bench(check=lambda r, p: None), clock_ns=fake_clock()
        )
        assert ok.check == "passed" and ok.check_passed
        bad = run_benchmark(make_bench(check=failing), clock_ns=fake_clock())
        assert bad.check.startswith("failed") and not bad.check_passed
        assert "wrong value" in bad.check
        skipped = run_benchmark(
            make_bench(check=failing), run_checks=False, clock_ns=fake_clock()
        )
        assert skipped.check == "skipped" and skipped.check_passed

    def test_setup_teardown_and_timed_region(self):
        calls = []

        def setup(n=3):
            calls.append("setup")
            return list(range(n))

        def run(state):
            calls.append("run")
            return sum(state)

        res = run_benchmark(
            Benchmark(
                name="with-state",
                fn=run,
                setup=setup,
                teardown=lambda state: calls.append("teardown"),
                tags=frozenset({"kernel"}),
                params={"n": 4},
            ),
            repeats=2,
            warmup=1,
            clock_ns=fake_clock(),
        )
        # setup once, warmup + 2 timed runs, teardown once.
        assert calls == ["setup", "run", "run", "run", "teardown"]
        assert res.raw == 6

    def test_metrics_and_model_info_recorded(self):
        res = run_benchmark(
            make_bench(
                metrics=lambda r: {"value": r["value"]},
                model_info=lambda p: {"predicted_s": 0.5 * p["scale"]},
            ),
            clock_ns=fake_clock(),
        )
        assert res.metrics == {"value": 42.0}
        assert res.model == {"predicted_s": 1.0}

    def test_deterministic_given_fake_clock(self):
        a = run_benchmark(make_bench(), repeats=3, clock_ns=fake_clock())
        b = run_benchmark(make_bench(), repeats=3, clock_ns=fake_clock())
        assert a.samples_s == b.samples_s
        assert a.summary == b.summary


class TestStatistics:
    def test_summarize_requires_samples(self):
        with pytest.raises(ConfigError):
            summarize_samples([])

    def test_single_sample_degenerate_ci(self):
        s = summarize_samples([0.5])
        assert s.min_s == s.median_s == s.ci95_low_s == s.ci95_high_s == 0.5
        assert s.std_s == 0.0 and s.outliers == 0

    def test_summary_brackets_median(self):
        samples = [1.0, 1.1, 1.05, 0.95, 1.02]
        s = summarize_samples(samples)
        assert s.ci95_low_s <= s.median_s <= s.ci95_high_s
        assert s.min_s == 0.95
        assert s.n == 5

    def test_seeded_bootstrap_deterministic(self):
        # The ISSUE's determinism requirement: identical samples through
        # the seeded bootstrap (repro.util.rng) give identical stats.
        samples = [1.0, 1.2, 1.1, 1.3, 0.9, 1.05]
        assert summarize_samples(samples, seed=7) == summarize_samples(
            samples, seed=7
        )
        # The CI endpoints come from bootstrap medians, so they are
        # always drawn from the achievable-median range of the samples.
        s = summarize_samples(samples, seed=7)
        assert min(samples) <= s.ci95_low_s <= s.ci95_high_s <= max(samples)

    def test_outlier_rejection_one_sided(self):
        samples = [1.0, 1.01, 0.99, 1.02, 0.98, 5.0]
        kept, n_out = reject_outliers(samples)
        assert n_out == 1
        assert 5.0 not in kept
        # Fast samples are never rejected.
        kept, n_out = reject_outliers([1.0, 1.01, 0.99, 1.02, 0.98, 0.5])
        assert 0.5 in kept

    def test_outlier_rejection_small_or_flat_sets(self):
        assert reject_outliers([1.0, 2.0]) == ([1.0, 2.0], 0)
        # MAD==0 (>=50% of samples on the median) used to disable the
        # rejection entirely; the mean-absolute-deviation fallback now
        # still drops the straggler.
        assert reject_outliers([1.0, 1.0, 1.0, 9.0]) == ([1.0, 1.0, 1.0], 1)
        # ...but identical samples are all kept.
        assert reject_outliers([3.0, 3.0, 3.0]) == ([3.0, 3.0, 3.0], 0)

    def test_outliers_excluded_from_summary(self):
        s = summarize_samples([1.0, 1.01, 0.99, 1.02, 0.98, 50.0])
        assert s.outliers == 1
        assert s.mean_s < 2.0
