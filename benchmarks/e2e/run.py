"""End-to-end benchmark: time to solution, serve latency and per-layer
traces over four workloads.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--trace [0|1]]
                                  [--json OUT]

Run from the root of a checkout (the program is imported from ``src``).
Each workload measures for ``run_seconds`` of ``BENCHMARK.json``, the
same on every commit.  Each runs in fresh child processes: two set-up
probes plus the measuring child, so ``setup_s`` is the median of three
set-ups.  A timed run (``--trace 0``) prints every end-to-end metric;
a traced run (``--trace 1``) replays the workload with spans around each
layer call, writes ``<out>/<workload>.trace.json`` and prints every
per-layer metric.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("als-f64", "als-f32-t2", "serve-mix", "dist-p2")
#: Per-layer metric prefixes of the layers a workload never calls; they
#: read 0 there, which is the prediction that they cannot move.
BYPASSED = {
    "als-f64": ("dist.", "serve.", "tune.", "load."),
    "als-f32-t2": ("dist.", "serve.", "tune.", "load."),
    "dist-p2": ("serve.", "tune.", "load."),
    "serve-mix": ("cpd.", "dist."),
}
#: Set-ups per run (the median is ``setup_s``), by scale.
SETUPS = {"full": 3, "smoke": 2}
#: Length of the measured phase at ``--scale smoke``; full scale takes
#: ``run_seconds`` from ``BENCHMARK.json``.
SMOKE_SECONDS = 1.0
#: Wall-clock budget of one workload, kept under the 180 s limit.
BUDGET_S = 160.0
#: Seconds a child's process group gets to end, after the child exits or
#: after SIGTERM, before the rest of it is killed.
GRACE_S = 5.0
#: One BLAS thread per process.  Every workload sets its own parallelism
#: (2 executor threads, 2 ranks, 2 server workers); OpenBLAS would add a
#: spinning thread per core to each process, which on 2 cores doubled a
#: serial call's CPU time and made run-to-run times swing with load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """A child process failed or produced no result."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all four)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the inputs and the initialisation")
    p.add_argument("--seconds", type=float,
                   help="expected run length; must equal run_seconds of "
                   "BENCHMARK.json, which fixes it")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="traced run: per-layer metrics")
    p.add_argument("--json", metavar="OUT",
                   help="append each workload's result record to this file")
    p.add_argument("--out", default=str(HERE / "out"),
                   help="directory for traces and server logs")
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own test")
    p.add_argument("--corrupt", type=int, default=0,
                   help="test hook: corrupt this many serve responses "
                   "before verification")
    p.add_argument("--child", choices=("probe", "main"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ----------------------------------------------------------------------
# child side
def child_main(args: argparse.Namespace) -> int:
    """Set up, announce READY, then (main child only) measure and print
    RESULT.  Stdout carries only those two lines."""
    sys.path.insert(0, str(ROOT / "src"))

    def emit(tag: str, payload: dict) -> None:
        print(tag, json.dumps(payload), flush=True)

    def log(msg: str) -> None:
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    args.trace_path = os.path.join(args.out, f"{args.workload}.trace.json")
    if args.workload == "serve-mix":
        import openloop

        result = openloop.run(args, str(ROOT), args.child,
                              lambda ready: emit("READY", ready), log)
    else:
        import workloads

        R, state, ready = workloads.setup(args)
        emit("READY", ready)
        if args.child == "probe":
            return 0
        run = workloads.traced_run if args.trace else workloads.timed_run
        result = run(R, state, args, log)
    if result is not None:
        emit("RESULT", result)
    return 0


# ----------------------------------------------------------------------
# parent side
def stop_group(pgid: int, terminate: bool) -> None:
    """Wait up to ``GRACE_S`` for every process of group ``pgid`` to end,
    sending SIGTERM first when ``terminate``; SIGKILL what is left.
    SIGTERM rather than SIGKILL lets the multiprocessing resource
    tracker, which ignores it, outlive the ``dist-p2`` ranks and unlink
    any shared-memory segment they left behind."""
    try:
        if terminate:
            os.killpg(pgid, signal.SIGTERM)
        end = time.monotonic() + GRACE_S
        while time.monotonic() < end:
            os.killpg(pgid, 0)
            time.sleep(0.05)
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args: argparse.Namespace, role: str, deadline: float):
    """Run one child; returns (spawn-to-READY seconds, READY payload,
    RESULT payload or None).  The child gets its own process group, so
    any server or rank it started ends with it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", args.out, "--scale", args.scale,
           "--corrupt", str(args.corrupt)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **BLAS_ENV),
                            start_new_session=True)
    timed_out = threading.Event()

    def on_timeout() -> None:
        timed_out.set()
        stop_group(proc.pid, terminate=True)

    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), on_timeout)
    watchdog.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, payload = line.partition(" ")
            if tag == "READY":
                setup_s, ready = time.perf_counter() - t0, json.loads(payload)
            elif tag == "RESULT":
                result = json.loads(payload)
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        clean = proc.poll() == 0
        if not clean:
            stop_group(proc.pid, terminate=True)
        proc.wait()
        # After a clean exit only stragglers remain, such as the resource
        # tracker finishing its clean-up; wait for them.
        stop_group(proc.pid, terminate=False)
        proc.stdout.close()
    if code != 0 or ready is None or (role == "main" and result is None):
        raise BenchError(f"{args.workload} {role} child exited with {code}"
                         + (" (timed out)" if timed_out.is_set() else ""))
    return setup_s, ready, result


def run_workload(args: argparse.Namespace, spec: dict) -> dict:
    """Set up ``SETUPS`` times (the last child goes on to measure) and
    assemble the metrics named in ``BENCHMARK.json``."""
    deadline = time.monotonic() + BUDGET_S
    setups, readies = [], []
    for i in range(SETUPS[args.scale]):
        role = "main" if i == SETUPS[args.scale] - 1 else "probe"
        setup_s, ready, result = spawn(args, role, deadline)
        setups.append(setup_s)
        readies.append(ready)
    values = {k: statistics.median(r[k] for r in readies) for k in readies[0]}
    values.update(result["metrics"])
    values["setup_s"] = statistics.median(setups)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics, missing = {}, []
    for m in spec[kind]:
        if m["name"] in values:
            value = values[m["name"]]
        elif m["name"].startswith(BYPASSED[args.workload]):
            value = 0.0
        else:
            missing.append(m["name"])
            continue
        # +inf (a failed request's latency) has no JSON form.
        metrics[m["name"]] = {"value": min(float(value), 1e12), "unit": m["unit"]}
    if missing:
        raise BenchError(f"{args.workload}: no value for {', '.join(missing)}")
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def append_record(path: str, record: dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)
    runs.append(record)
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.scale == "full" else SMOKE_SECONDS
    if args.seconds is not None and args.seconds != seconds:
        print(f"run.py: --seconds {args.seconds:g} differs from the fixed run "
              f"length of {seconds:g} s", file=sys.stderr)
        return 2
    args.seconds = seconds
    os.makedirs(args.out, exist_ok=True)
    results = {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        args.workload = workload
        try:
            results[workload] = res = run_workload(args, spec)
        except BenchError as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
        for name, m in res["metrics"].items():
            print(f"{workload:<11} {name:<24} {m['value']:>14.6g} {m['unit']}")
        print(f"{workload:<11} correct={res['correct']} "
              f"attempted={res['attempted']} failed={res['failed']}")
        if args.json:
            append_record(args.json, {
                "workload": workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "scale": args.scale, "result": res})
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
