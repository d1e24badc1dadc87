"""In-memory span recorder for the traced benchmark run.

Kept inside the benchmark (not ``repro.obs``) so that a change to the
program cannot also change how its layers are timed.  Spans nest through
an explicit stack; ``add`` records a span whose interval was measured
elsewhere (serve phases reported by the server).  Self time is a span's
duration minus the part of it covered by its children.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._children: dict[int, list[int]] = {}
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float,
            parent: "int | None" = None, **args: object) -> int:
        """Record a span from perf_counter seconds; returns its id."""
        sid = len(self.spans)
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": parent, "args": args})
        if parent is not None:
            self._children.setdefault(parent, []).append(sid)
        return sid

    @contextmanager
    def span(self, name: str, **args: object):
        parent = self._stack[-1] if self._stack else None
        sid = self.add(name, time.perf_counter(), 0.0, parent, **args)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.spans[sid]["end"] = time.perf_counter()

    def duration(self, sid: int) -> float:
        return self.spans[sid]["end"] - self.spans[sid]["start"]

    def children(self, sid: int) -> list[int]:
        return self._children.get(sid, [])

    def self_time(self, sid: int) -> float:
        span = self.spans[sid]
        covered, cursor = 0.0, span["start"]
        for lo, hi in sorted((self.spans[c]["start"], self.spans[c]["end"])
                             for c in self.children(sid)):
            lo, hi = max(lo, cursor), min(hi, span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        return self.duration(sid) - covered

    def write_chrome(self, path: str) -> dict:
        """Write Chrome Trace Event Format: one complete event per span,
        in microseconds, each tree of spans on its own track."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        roots: list[int] = []
        for s in self.spans:
            parent = s["parent"]
            roots.append(len(roots) if parent is None else roots[parent])
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": roots[sid],
            "ts": (s["start"] - origin) * 1e6,
            "dur": max(0.0, s["end"] - s["start"]) * 1e6,
            "args": dict(s["args"], self_us=self.self_time(sid) * 1e6),
        } for sid, s in enumerate(self.spans)]
        doc = {"traceEvents": events, "displayTimeUnit": "ms"}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return doc
