"""Tracer core: span nesting, thread attribution, counters, the disabled
no-op contract, and the active-tracer plumbing."""

from __future__ import annotations

import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)


def make_clock(step_ns: int = 1000):
    """Deterministic injectable clock: advances ``step_ns`` per call."""
    state = {"now": 0}

    def clock() -> int:
        state["now"] += step_ns
        return state["now"]

    return clock


class TestSpans:
    def test_span_records_name_duration_and_meta(self):
        tracer = Tracer(clock_ns=make_clock())
        with tracer.span("work", mode=2) as sp:
            sp.meta["extra"] = 7
        (rec,) = tracer.spans
        assert rec.name == "work"
        assert rec.dur_ns > 0
        assert rec.meta == {"mode": 2, "extra": 7}

    def test_nesting_depth(self):
        tracer = Tracer(clock_ns=make_clock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("innermost"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["innermost"].depth == 2
        # Spans close innermost-first.
        assert [s.name for s in tracer.spans] == ["innermost", "inner", "outer"]

    def test_failing_span_records_error_type(self):
        tracer = Tracer(clock_ns=make_clock())
        with pytest.raises(KeyError):
            with tracer.span("outer"):
                with tracer.span("inner", mode=1):
                    raise KeyError("boom")
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["inner"].meta == {"mode": 1, "error": "KeyError"}
        assert by_name["outer"].meta == {"error": "KeyError"}
        with tracer.span("after"):
            pass
        assert "error" not in tracer.spans[-1].meta
        assert tracer.spans[-1].depth == 0

    def test_depth_resets_between_siblings(self):
        tracer = Tracer(clock_ns=make_clock())
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert all(s.depth == 0 for s in tracer.spans)

    def test_thread_attribution(self):
        tracer = Tracer()
        # All workers alive at once, or the OS may reuse thread idents.
        barrier = threading.Barrier(3)

        def worker():
            with tracer.span("threaded"):
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with tracer.span("main"):
            pass
        recs = tracer.spans_named("threaded")
        assert len(recs) == 3
        assert len({r.thread_id for r in recs}) == 3
        (main_rec,) = tracer.spans_named("main")
        assert main_rec.thread_id == threading.get_ident()
        # Per-thread depth stacks: concurrent siblings never inherit
        # another thread's nesting level.
        assert all(r.depth == 0 for r in recs)

    def test_add_span_synthesized(self):
        tracer = Tracer(clock_ns=make_clock())
        tracer.add_span(
            "exec.worker",
            100,
            50,
            thread_id=1_000_042,
            thread_name="process-worker-42",
            synthesized=True,
        )
        (rec,) = tracer.spans
        assert rec.thread_id == 1_000_042
        assert rec.thread_name == "process-worker-42"
        assert rec.meta["synthesized"] is True

    def test_negative_duration_clamped(self):
        tracer = Tracer()
        tracer.add_span("weird", 100, -5)
        assert tracer.spans[0].dur_ns == 0


class TestCountersAndMetrics:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("kernel.nonzeros", 100)
        tracer.count("kernel.nonzeros", 50)
        tracer.count("kernel.calls")
        assert tracer.counters == {"kernel.nonzeros": 150, "kernel.calls": 1}

    def test_metrics_carry_step(self):
        tracer = Tracer(clock_ns=make_clock())
        tracer.metric("als.fit", 0.5, step=1)
        tracer.metric("als.fit", 0.7, step=2)
        assert [p.value for p in tracer.metrics] == [0.5, 0.7]
        assert [p.step for p in tracer.metrics] == [1, 2]

    def test_summary_digest(self):
        tracer = Tracer(clock_ns=make_clock())
        for _ in range(3):
            with tracer.span("mttkrp"):
                pass
        tracer.count("kernel.calls", 3)
        tracer.metric("als.fit", 0.9, step=1)
        s = tracer.summary()
        assert s["spans"]["mttkrp"]["count"] == 3
        assert s["spans"]["mttkrp"]["total_s"] > 0
        assert s["counters"] == {"kernel.calls": 3}
        assert s["n_metric_points"] == 1
        assert s["n_threads"] == 1


class TestDisabled:
    def test_null_tracer_is_disabled_and_inert(self):
        null = NullTracer()
        assert not null.enabled
        with null.span("anything", mode=0) as sp:
            sp.meta["cost"] = 1.0  # must not raise
        null.count("kernel.calls", 5)
        null.metric("fit", 0.5)
        null.add_span("x", 0, 1)
        assert null.summary() == {
            "spans": {},
            "counters": {},
            "n_metric_points": 0,
            "n_threads": 0,
        }

    def test_null_tracer_has_no_state(self):
        # __slots__ = (): the disabled singleton cannot accumulate
        # anything, which is what makes it safe as a process-wide default.
        with pytest.raises(AttributeError):
            NULL_TRACER.spans = []  # type: ignore[attr-defined]


class TestActiveTracer:
    def test_default_is_null(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_use_tracer_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert current_tracer() is tracer
            assert current_tracer().enabled
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with use_tracer(tracer):
                raise RuntimeError("boom")
        assert current_tracer() is NULL_TRACER

    def test_set_tracer_none_restores_null(self):
        tracer = Tracer()
        set_tracer(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            set_tracer(None)
        assert current_tracer() is NULL_TRACER

    def test_worker_threads_see_active_tracer(self):
        # Deliberately process-global: repro.exec worker threads must
        # observe the tracer installed by the main thread.
        tracer = Tracer()
        seen = []

        def worker():
            seen.append(current_tracer())

        with use_tracer(tracer):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [tracer]
