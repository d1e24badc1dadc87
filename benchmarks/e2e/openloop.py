"""The ``serve-mix`` workload: a ``repro serve`` subprocess driven over the
NDJSON wire protocol by an open-loop generator, then a closed loop.

The generator is one asyncio loop on one pipelined TCP connection (plus
one short-lived connection for ``drain``), so it needs one thread and
two connections however many requests are in flight.  Open-loop latency
runs from each request's *scheduled* send time, so a stall is charged to
every request it delays; a failed or refused request counts as +inf.
Every completed response is verified bitwise after the phases end:
sha256 of a local ``Kernel.execute`` with the response's
``applied_params``.  Nothing here imports ``repro.serve``: the benchmark
speaks the protocol itself, so it cannot change with the server.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from contextlib import nullcontext
from hashlib import sha256
from statistics import median

import numpy as np

from spans import SpanRecorder
from workloads import PROBE_REPS, import_repro, layer_metrics, probe_plan

#: Open-loop arrival rate: about 20% of the ~60 jobs/s the closed loop
#: reaches on a 2-core host.  Busier rates amplify the host's own speed
#: swings: over four seeds p50 spread 10% at 25 req/s against 2% here,
#: and at 50 req/s, near the knee, p50 read 55 ms in one run and 107 ms
#: in the next.
RATE_PER_S = 12.0
#: Requests the closed loop keeps in flight.
IN_FLIGHT = 8
#: Share of the run window spent in the open phase; the closed phase gets
#: the rest.
OPEN_SHARE = 0.6
#: Server command: 2 pool workers and 2 batch runners for 2 cores.
SERVER_ARGS = ("-m", "repro", "serve", "run", "--port", "0",
               "--workers", "2", "--runners", "2")


#: Template families: (generator, requested nnz) by scale.  Both keep
#: their nnz steady across seeds (power_law varies 0.2%; the protocol's
#: poisson recipe varied 6.8%), and uniform is sized so both families
#: cost about the same per request.  With 40k-event poisson (13 ms) and
#: uniform (45 ms) jobs half and half, the median fell between the two
#: modes and doubled from one seed to the next.
FAMILIES = {"full": (("power_law", 40_000), ("uniform", 28_000)),
            "smoke": (("power_law", 3_000), ("uniform", 2_000))}


def templates(seed: int, scale: str) -> "list[dict]":
    """12 job templates: {power_law, uniform} x {f32, f64} x mode {0,1,2}."""
    dims = [400, 300, 350] if scale == "full" else [60, 50, 40]
    return [
        {"tensor": {"synthetic": gen, "dims": dims, "nnz": nnz,
                    "seed": seed, "dtype": dtype},
         "mode": mode, "rank": 16, "kernel": "mb", "tune": True}
        for gen, nnz in FAMILIES[scale]
        for dtype in ("float32", "float64")
        for mode in (0, 1, 2)
    ]


def request_stream(rng: random.Random, n_templates: int):
    """Endless (template, factors_seed) pairs in rounds that send every
    template once in a seeded order, so every run sends the same mix."""
    while True:
        order = list(range(n_templates))
        rng.shuffle(order)
        for tpl in order:
            yield tpl, rng.randrange(2)


def contract_factors(shape, rank: int, seed: int, dtype: str):
    """The protocol's factor contract: server and verifying clients both
    draw ``standard_normal((I_m, R))`` per mode from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, rank)).astype(dtype) for n in shape]


# ----------------------------------------------------------------------
# server process and connection
class Server:
    """``python -m repro serve run`` as a subprocess of this one."""

    def __init__(self, root: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
        self.log = open(log_path, "a")
        self.proc = subprocess.Popen(
            [sys.executable, *SERVER_ARGS], cwd=root, env=env,
            stdout=subprocess.PIPE, stderr=self.log, text=True)
        line = self.proc.stdout.readline()
        found = re.search(r"listening on \S+:(\d+)", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"server did not start (see {log_path}): {line!r}")
        self.port = int(found.group(1))

    def vmhwm_mb(self) -> float:
        """Peak resident set of the server process in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    async def drain(self) -> dict:
        """Drain on a fresh connection (the load connection must already
        be closed: draining with it open makes the server log a
        CancelledError from its connection handler), then wait for exit."""
        conn = await Connection.open(self.port)
        try:
            _, resp = await conn.request({"op": "drain"})
        finally:
            await conn.close()
        await asyncio.get_running_loop().run_in_executor(
            None, lambda: self.proc.wait(timeout=60))
        return resp

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Connection:
    """One pipelined NDJSON connection; responses resolve by ``id``."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: dict[int, asyncio.Future] = {}
        self.next_id = 0
        self.reading = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 20)
        return cls(reader, writer)

    async def _read(self) -> None:
        while line := await self.reader.readline():
            resp = json.loads(line)
            fut = self.pending.pop(resp.get("id"), None)
            if fut is not None and not fut.done():
                fut.set_result((time.perf_counter(), resp))
        lost = {"ok": False, "error": {"code": "disconnected"}}
        for fut in self.pending.values():
            if not fut.done():
                fut.set_result((time.perf_counter(), lost))

    def request(self, payload: dict) -> asyncio.Future:
        self.next_id += 1
        fut = asyncio.get_running_loop().create_future()
        self.pending[self.next_id] = fut
        frame = dict(payload, id=self.next_id)
        self.writer.write(json.dumps(frame, separators=(",", ":")).encode() + b"\n")
        return fut

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()
        await self.reading


def submit(conn: Connection, tpls, tpl: int, fseed: int) -> asyncio.Future:
    return conn.request({"op": "submit",
                         "job": dict(tpls[tpl], factors_seed=fseed)})


# ----------------------------------------------------------------------
# phases
async def cold_submits(conn, tpls) -> "list[dict]":
    """One submit per template, one at a time: the tuner and the tensor
    cache start cold for each."""
    records = []
    for i in range(len(tpls)):
        sent = time.perf_counter()
        done, resp = await submit(conn, tpls, i, 0)
        records.append({"tpl": i, "fseed": 0, "due": sent, "sent": sent,
                        "done": done, "resp": resp})
    return records


async def open_loop(conn, tpls, stream, n_requests: int) -> "list[dict]":
    """Send on a fixed schedule whatever the responses do."""
    start = time.perf_counter() + 0.05
    records, futures = [], []
    for i in range(n_requests):
        due = start + i / RATE_PER_S
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tpl, fseed = next(stream)
        records.append({"tpl": tpl, "fseed": fseed, "due": due,
                        "sent": time.perf_counter()})
        futures.append(submit(conn, tpls, tpl, fseed))
    for rec, fut in zip(records, futures):
        rec["done"], rec["resp"] = await fut
    return records


async def closed_loop(conn, tpls, stream, seconds: float):
    """``IN_FLIGHT`` callers that each send again once answered."""
    start = time.perf_counter()
    records: list[dict] = []

    async def caller():
        while time.perf_counter() - start < seconds:
            tpl, fseed = next(stream)
            sent = time.perf_counter()
            done, resp = await submit(conn, tpls, tpl, fseed)
            records.append({"tpl": tpl, "fseed": fseed, "due": sent,
                            "sent": sent, "done": done, "resp": resp})

    await asyncio.gather(*(caller() for _ in range(IN_FLIGHT)))
    return records, time.perf_counter() - start


# ----------------------------------------------------------------------
# verification and metrics
def ok(rec) -> bool:
    return bool(rec["resp"].get("ok"))


def latency_ms(rec) -> float:
    return (rec["done"] - rec["due"]) * 1e3 if ok(rec) else math.inf


def percentile(values, p: float) -> float:
    """Inclusive linear-interpolated percentile; +inf entries (failed
    requests) sort last and make any percentile they touch +inf."""
    xs = sorted(values)
    if not xs:
        return math.inf
    pos = (len(xs) - 1) * p / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def decode_params(params_json: str) -> dict:
    """``applied_params`` as ``Kernel.prepare`` keywords."""
    return {k: tuple(v) if isinstance(v, list) else v
            for k, v in json.loads(params_json).items()}


def verify(R, tpls, records, rec: "SpanRecorder | None", reps: int):
    """Count responses whose sha256 differs from a local execution with
    the response's ``applied_params``; with a recorder, also probe every
    template's plan through the kernel and exec layers."""
    tensors, build_s = {}, 0.0
    gens = {"power_law": R.power_law_tensor, "uniform": R.uniform_random_tensor}
    expected: dict[tuple, str] = {}
    probes, prepare_ms = [], []
    for i, tpl in enumerate(tpls):
        ref = tpl["tensor"]
        key = (ref["synthetic"], ref["dtype"])
        if key not in tensors:
            t0 = time.perf_counter()
            t = gens[ref["synthetic"]](ref["dims"], ref["nnz"], seed=ref["seed"])
            tensors[key] = R.COOTensor(t.shape, t.indices,
                                       t.values.astype(ref["dtype"]))
            build_s += time.perf_counter() - t0
        tensor = tensors[key]
        applied = [r["resp"]["applied_params"] for r in records
                   if r["tpl"] == i and ok(r)]
        for params_json in {json.dumps(a, sort_keys=True) for a in applied}:
            params = decode_params(params_json)
            kern = R.get_kernel(tpl["kernel"])
            plan = kern.prepare(tensor, tpl["mode"], **params)
            for fseed in (0, 1):
                factors = contract_factors(tensor.shape, tpl["rank"], fseed,
                                           ref["dtype"])
                out = np.ascontiguousarray(kern.execute(plan, factors))
                expected[(i, fseed, params_json)] = sha256(out.tobytes()).hexdigest()
        if rec is not None and applied:
            factors = contract_factors(tensor.shape, tpl["rank"], 0,
                                       ref["dtype"])
            probe = probe_plan(R, rec, tensor, tpl["mode"], tpl["kernel"],
                               decode_params(json.dumps(applied[0])),
                               factors, reps)
            probes.append((tpl["mode"], probe))
            prepare_ms.append(probe["exec_prepare_s"] * 1e3)
    mismatched = sum(
        1 for r in records if ok(r) and r["resp"].get("sha256") != expected.get(
            (r["tpl"], r["fseed"],
             json.dumps(r["resp"]["applied_params"], sort_keys=True))))
    return mismatched, build_s, probes, prepare_ms


def serve_metrics(open_recs, closed_recs, closed_wall, stats, cold) -> dict:
    """Serve-layer numbers.  Tails are p90: the open phase has 180
    requests, so p90 is the highest percentile with ten samples beyond."""
    def field(recs, name):
        return [r["resp"][name] for r in recs if ok(r)]

    late = [(r["sent"] - r["due"]) * 1e3 for r in open_recs]
    other = [latency_ms(r) - r["resp"]["queue_ms"] - r["resp"]["exec_ms"]
             for r in open_recs if ok(r)]
    tuned = [r["resp"].get("tuned") or {} for r in open_recs + closed_recs
             if ok(r)]
    return {
        "tune.hit_frac": sum(bool(t.get("from_cache")) for t in tuned)
        / max(1, len(tuned)),
        "tune.cold_ms": median([latency_ms(r) for r in cold]),
        "serve.p90_ms": percentile([latency_ms(r) for r in open_recs], 90),
        "serve.queue_ms.p50": percentile(field(open_recs, "queue_ms"), 50),
        "serve.queue_ms.p90": percentile(field(open_recs, "queue_ms"), 90),
        "serve.exec_ms.p50": percentile(field(open_recs, "exec_ms"), 50),
        "serve.exec_ms.p90": percentile(field(open_recs, "exec_ms"), 90),
        "serve.other_ms.p50": percentile(other, 50),
        "serve.batch_mean": float(np.mean(field(open_recs, "batch_size"))),
        "serve.queue_peak": float(stats["queue"]["peak_depth"]),
        "serve.sat.jobs_per_s": sum(map(ok, closed_recs)) / closed_wall,
        "serve.sat.queue_ms.p50": percentile(field(closed_recs, "queue_ms"), 50),
        "serve.sat.exec_ms.p50": percentile(field(closed_recs, "exec_ms"), 50),
        "serve.sat.batch_mean": float(np.mean(field(closed_recs, "batch_size"))),
        "load.late_ms.p90": percentile(late, 90),
        "load.late_ms.max": max(late),
    }


def record_spans(rec: SpanRecorder, records, phase: str) -> None:
    """Requests as spans, split into the queue wait and execution the
    server reports (placed from the send time; marked synthesized)."""
    for r in records:
        root = rec.add("serve.request", r["due"], r["done"], phase=phase,
                       template=r["tpl"], ok=ok(r))
        if ok(r):
            q = r["sent"] + r["resp"]["queue_ms"] / 1e3
            e = min(q + r["resp"]["exec_ms"] / 1e3, r["done"])
            rec.add("serve.queue", r["sent"], min(q, r["done"]), root,
                    synthesized=True)
            rec.add("serve.exec", min(q, r["done"]), e, root,
                    synthesized=True, batch_size=r["resp"]["batch_size"])


# ----------------------------------------------------------------------
# entry points
async def _setup(root, log_path, tpls):
    t0 = time.perf_counter()
    server = Server(root, log_path)
    try:
        t1 = time.perf_counter()
        conn = await Connection.open(server.port)
        cold = await cold_submits(conn, tpls)
        ready = {"setup.import_s": t1 - t0,
                 "setup.warmup_s": time.perf_counter() - t1}
    except BaseException:
        server.stop()
        raise
    return server, conn, cold, ready


def run(args, root: str, role: str, emit_ready, log) -> "dict | None":
    tpls = templates(args.seed, args.scale)
    log_path = os.path.join(args.out, f"serve-server-{role}.log")

    async def main():
        server, conn, cold, ready = await _setup(root, log_path, tpls)
        try:
            emit_ready(ready)
            if role == "probe":
                await conn.close()
                await server.drain()
                return None
            stream = request_stream(random.Random(args.seed), len(tpls))
            n_open = len(tpls) * max(1, round(
                RATE_PER_S * OPEN_SHARE * args.seconds / len(tpls)))
            t0 = time.perf_counter()
            open_recs = await open_loop(conn, tpls, stream, n_open)
            closed_recs, closed_wall = await closed_loop(
                conn, tpls, stream, (1 - OPEN_SHARE) * args.seconds)
            phases_s = time.perf_counter() - t0
            _, stats = await conn.request({"op": "stats"})
            await conn.close()
            rss = server.vmhwm_mb()
            drained = await server.drain()
        finally:
            server.stop()
        return cold, open_recs, closed_recs, closed_wall, phases_s, stats, rss, drained

    got = asyncio.run(main())
    if got is None:
        return None
    cold, open_recs, closed_recs, closed_wall, phases_s, stats, rss, drained = got

    for r in [r for r in open_recs if ok(r)][:args.corrupt]:
        r["resp"]["sha256"] = "0" * 64
    records = cold + open_recs + closed_recs
    R = import_repro()
    rec = SpanRecorder() if args.trace else None
    with rec.span("verify") if rec else nullcontext():
        mismatched, build_s, probes, prepare_ms = verify(
            R, tpls, records, rec, PROBE_REPS[args.scale])
    refused = sum(not ok(r) for r in records)
    if refused or mismatched:
        log(f"{refused} failed and {mismatched} mismatched responses")
    if not drained.get("ok"):
        log(f"drain failed: {drained}")
    failed = refused + mismatched + (not drained.get("ok"))
    result = {"attempted": len(records) + 1, "failed": failed}
    if not args.trace:
        result["metrics"] = {
            "latency_ms": percentile([latency_ms(r) for r in open_recs], 50),
            "peak_rss_mb": rss,
        }
        return result

    t0 = time.perf_counter()
    for name, recs in (("cold", cold), ("open", open_recs), ("closed", closed_recs)):
        record_spans(rec, recs, name)
    span_s = time.perf_counter() - t0
    rec.write_chrome(args.trace_path)
    served = [r for r in open_recs if ok(r)]
    metrics = serve_metrics(open_recs, closed_recs, closed_wall, stats, cold)
    metrics.update(layer_metrics(probes))
    metrics.update({
        "serve.prepare_est_ms": median(prepare_ms),
        "tensor.build_s": build_s,
        "trace.coverage": sum(r["resp"]["queue_ms"] + r["resp"]["exec_ms"]
                              for r in served)
        / sum((r["done"] - r["sent"]) * 1e3 for r in served),
        "trace.overhead_frac": span_s / phases_s,
    })
    result["metrics"] = metrics
    return result
