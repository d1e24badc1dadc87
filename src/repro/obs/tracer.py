"""Low-overhead runtime tracer: nested spans, typed counters, metric points.

The paper's argument is built on *measured* behaviour — per-thread
imbalance, memory traffic, time per candidate configuration (Sections
III-IV).  ``repro.machine`` predicts those quantities; this module records
what actually happened during a run so predictions can be lined up against
reality.

Design constraints
------------------
* **Near-zero cost when disabled.**  The disabled tracer is a module-level
  singleton whose ``enabled`` attribute is ``False``; every hook in the hot
  layers guards on that flag before building any metadata, and no hook ever
  runs per nonzero — counters are accumulated per chunk/block/kernel call.
* **Monotonic clock.**  Spans are timed with ``time.monotonic_ns`` (never
  wall-clock), injectable for tests.
* **Thread-aware.**  Each thread keeps its own span stack (``threading.local``),
  so worker spans opened by ``repro.exec`` nest correctly and carry the
  opening thread's id/name; the record list itself is lock-protected.

Usage::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        cp_als(tensor, rank=16)
    tracer.to_chrome_trace()   # load in chrome://tracing / Perfetto
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "COUNTER_UNITS",
    "MetricPoint",
    "NULL_TRACER",
    "NullTracer",
    "SpanRecord",
    "Tracer",
    "current_tracer",
    "set_tracer",
    "use_tracer",
]

#: Units for the counters the built-in hooks emit.  ``Tracer.count`` accepts
#: arbitrary names; these are the documented, typed ones (see
#: ``docs/observability.md`` for the catalog).
COUNTER_UNITS: dict[str, str] = {
    "kernel.calls": "calls",
    "kernel.nonzeros": "nnz",
    "kernel.fibers": "fibers",
    "kernel.gathers": "rows",
    "kernel.factor_bytes": "bytes",
    "exec.workers": "workers",
    "exec.launches": "launches",
    "tune.cache_hits": "hits",
    "tune.cache_misses": "misses",
    "tune.evaluations": "candidates",
    "cachesim.accesses": "lines",
    "cachesim.misses": "lines",
    "dist.comm_bytes": "bytes",
    "dist.collectives": "collectives",
    "dist.ranks": "ranks",
    "serve.accepted": "jobs",
    "serve.completed": "jobs",
    "serve.rejected_full": "jobs",
    "serve.rejected_invalid": "jobs",
    "serve.cancelled": "jobs",
    "serve.deadline_expired": "jobs",
    "serve.batches": "batches",
    "serve.warm_hits": "hits",
    "serve.warm_misses": "misses",
    "serve.slo_violations": "jobs",
    "serve.queue_depth_peak": "jobs",
}


@dataclass
class SpanRecord:
    """One closed span: a named, timed, thread-attributed interval."""

    name: str
    start_ns: int
    dur_ns: int
    thread_id: int
    thread_name: str
    depth: int
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return self.dur_ns / 1e9


@dataclass
class MetricPoint:
    """One scalar observation (e.g. fit after ALS iteration ``step``)."""

    name: str
    value: float
    step: int | None
    ts_ns: int


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`.

    Mutable ``meta`` lets callers attach results discovered mid-span::

        with tracer.span("tune.evaluate") as sp:
            sp.meta["cost"] = evaluate(...)
    """

    __slots__ = ("_tracer", "name", "meta", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, meta: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.meta = meta
        self._start_ns = 0
        self._depth = 0

    def __enter__(self) -> "_SpanHandle":
        self._depth = self._tracer._push()
        self._start_ns = self._tracer._clock_ns()
        return self

    def __exit__(self, exc_type: "type[BaseException] | None", *_: object) -> None:
        end_ns = self._tracer._clock_ns()
        if exc_type is not None:
            # A body that raised still closes its span, marked failed.
            self.meta["error"] = exc_type.__name__
        self._tracer._pop(self, end_ns)


class Tracer:
    """Collects spans, counters, and metric points for one traced run."""

    enabled: bool = True

    def __init__(self, *, clock_ns: Callable[[], int] = time.monotonic_ns) -> None:
        self._clock_ns = clock_ns
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: list[SpanRecord] = []
        self.counters: dict[str, float] = {}
        self.metrics: list[MetricPoint] = []
        #: Epoch of the trace on the monotonic clock; chrome-trace
        #: timestamps are exported relative to this.
        self.origin_ns: int = clock_ns()

    # ------------------------------------------------------------------
    # span stack (per thread)
    # ------------------------------------------------------------------
    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _push(self) -> int:
        depth = self._depth()
        self._local.depth = depth + 1
        return depth

    def _pop(self, handle: _SpanHandle, end_ns: int) -> None:
        self._local.depth = max(0, self._depth() - 1)
        thread = threading.current_thread()
        record = SpanRecord(
            name=handle.name,
            start_ns=handle._start_ns,
            dur_ns=max(0, end_ns - handle._start_ns),
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            depth=handle._depth,
            meta=handle.meta,
        )
        with self._lock:
            self.spans.append(record)

    # ------------------------------------------------------------------
    # public recording API
    # ------------------------------------------------------------------
    def span(self, name: str, **meta: Any) -> _SpanHandle:
        """Open a nested span; use as a context manager."""
        return _SpanHandle(self, name, meta)

    def add_span(
        self,
        name: str,
        start_ns: int,
        dur_ns: int,
        *,
        thread_id: int | None = None,
        thread_name: str | None = None,
        depth: int = 0,
        **meta: Any,
    ) -> None:
        """Record an externally timed span (e.g. synthesized from a process
        worker's reported duration, where the tracer could not run inline)."""
        thread = threading.current_thread()
        record = SpanRecord(
            name=name,
            start_ns=int(start_ns),
            dur_ns=max(0, int(dur_ns)),
            thread_id=(thread.ident or 0) if thread_id is None else int(thread_id),
            thread_name=thread.name if thread_name is None else thread_name,
            depth=depth,
            meta=meta,
        )
        with self._lock:
            self.spans.append(record)

    def count(self, name: str, value: float = 1) -> None:
        """Accumulate a counter.  Call per chunk/block, never per nonzero."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def metric(self, name: str, value: float, step: int | None = None) -> None:
        """Record one scalar observation (fit, log-likelihood, ...)."""
        point = MetricPoint(
            name=name, value=float(value), step=step, ts_ns=self._clock_ns()
        )
        with self._lock:
            self.metrics.append(point)

    # ------------------------------------------------------------------
    # inspection / export glue
    # ------------------------------------------------------------------
    def spans_named(self, name: str) -> list[SpanRecord]:
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def span_counts(self) -> dict[str, int]:
        """Number of closed spans per name."""
        counts: dict[str, int] = {}
        with self._lock:
            for s in self.spans:
                counts[s.name] = counts.get(s.name, 0) + 1
        return counts

    def summary(self) -> dict[str, Any]:
        """Compact JSON-safe digest: per-name span stats + counters + metrics.

        This is what the bench harness attaches to ``BENCH_*.json`` results.
        """
        by_name: dict[str, dict[str, Any]] = {}
        with self._lock:
            for s in self.spans:
                agg = by_name.setdefault(
                    s.name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
                )
                agg["count"] += 1
                agg["total_s"] += s.dur_s
                agg["max_s"] = max(agg["max_s"], s.dur_s)
            counters = dict(self.counters)
            n_metrics = len(self.metrics)
            threads = {s.thread_id for s in self.spans}
        return {
            "spans": by_name,
            "counters": counters,
            "n_metric_points": n_metrics,
            "n_threads": len(threads),
        }


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Hot-layer hooks check ``tracer.enabled`` and return immediately, so the
    per-kernel-call cost of a disabled trace is one module-global load and
    one attribute test (enforced by the ``tracer_overhead_splatt``
    benchmark).
    """

    enabled: bool = False

    __slots__ = ()

    def span(self, name: str, **meta: Any) -> "_NullSpan":
        return _NULL_SPAN

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def count(self, name: str, value: float = 1) -> None:
        return None

    def metric(self, name: str, value: float, step: int | None = None) -> None:
        return None

    def summary(self) -> dict[str, Any]:
        return {"spans": {}, "counters": {}, "n_metric_points": 0, "n_threads": 0}


class _NullSpan:
    __slots__ = ("meta",)

    def __init__(self) -> None:
        #: Discarded; lets ``with tracer.span(...) as sp: sp.meta[...] = v``
        #: run unchanged against a disabled tracer.
        self.meta: dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The process-wide disabled tracer (the default active tracer).
NULL_TRACER = NullTracer()

_active: "Tracer | NullTracer" = NULL_TRACER


def current_tracer() -> "Tracer | NullTracer":
    """The active tracer (the NullTracer unless a trace is running)."""
    return _active


def set_tracer(tracer: "Tracer | NullTracer | None") -> None:
    """Install ``tracer`` as the active tracer (``None`` restores the
    NullTracer).  Deliberately process-global, not thread-local: worker
    threads spawned by ``repro.exec`` must see the same tracer."""
    global _active
    _active = NULL_TRACER if tracer is None else tracer


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Activate ``tracer`` for the duration of the block, then restore."""
    global _active
    previous = _active
    _active = tracer
    try:
        yield tracer
    finally:
        _active = previous
