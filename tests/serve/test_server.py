"""End-to-end and admission-path tests for the serve server."""

import asyncio
import threading

import pytest

from repro.kernels import get_kernel
from repro.serve import (
    JobSpec,
    ServeClient,
    ServeConfig,
    ServeServer,
    factors_for_spec,
    result_sha256,
)
from repro.serve.job import Job

pytestmark = pytest.mark.parallel_exec


def job_payload(*, dtype="float64", seed=0, factors_seed=0, rank=4, nnz=600):
    return {
        "tensor": {
            "synthetic": "poisson",
            "dims": [24, 20, 22],
            "nnz": nnz,
            "seed": seed,
            "dtype": dtype,
        },
        "mode": 0,
        "rank": rank,
        "kernel": "mb",
        "tune": True,
        "factors_seed": factors_seed,
    }


def assert_bitwise_identical(resp, job):
    """The service contract: a completed response's checksum matches a
    direct serial kernel execution with the applied parameters."""
    spec = JobSpec.from_payload(job)
    tensor = spec.tensor.build()
    factors = factors_for_spec(
        tensor.shape, spec.rank, spec.factors_seed, spec.tensor.dtype
    )
    params = {
        k: (tuple(v) if isinstance(v, list) else v)
        for k, v in resp["applied_params"].items()
    }
    direct = get_kernel(spec.kernel).mttkrp(tensor, factors, spec.mode, **params)
    assert resp["sha256"] == result_sha256(direct)
    assert resp["dtype"] == spec.tensor.dtype


@pytest.fixture()
def client():
    c = ServeClient.start(ServeConfig(port=None, n_workers=2, n_runners=2))
    try:
        yield c
    finally:
        c.close()


class TestEndToEnd:
    def test_ping_and_stats(self, client):
        ping = client.ping()
        assert ping["ok"] and ping["state"] == "serving"
        stats = client.stats()
        assert stats["ok"]
        assert stats["queue"]["limit"] == 64
        assert set(stats["latency_ms"]) >= {"count", "p50", "p95", "p99"}
        assert stats["pool"]["n_threads"] == 2

    def test_unknown_op(self, client):
        resp = client.request({"op": "frobnicate", "id": "x"})
        assert not resp["ok"]
        assert resp["error"]["code"] == "unknown_op"

    def test_submit_is_bitwise_identical_to_direct_execution(self, client):
        job = job_payload(factors_seed=7)
        resp = client.submit(job)
        assert resp["ok"] and resp["state"] == "completed"
        assert resp["tuned"] is not None
        assert resp["exec_ms"] >= 0 and resp["queue_ms"] >= 0
        assert_bitwise_identical(resp, job)

    def test_float32_stays_float32(self, client):
        job = job_payload(dtype="float32", factors_seed=3)
        resp = client.submit(job)
        assert resp["ok"] and resp["dtype"] == "float32"
        assert_bitwise_identical(resp, job)

    def test_untuned_explicit_params(self, client):
        job = dict(job_payload(), tune=False,
                   params={"block_counts": [2, 2, 2]})
        resp = client.submit(job)
        assert resp["ok"] and resp["tuned"] is None
        assert resp["applied_params"] == {"block_counts": [2, 2, 2]}
        assert_bitwise_identical(resp, job)

    def test_invalid_job_rejected(self, client):
        resp = client.submit({"tensor": {}, "rank": 4})
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_job"
        stats = client.stats()
        assert stats["counters"].get("rejected_invalid", 0) >= 1

    def test_warm_cache_amortizes_tuning(self, client):
        for _ in range(3):
            assert client.submit(job_payload())["ok"]
        warm = client.stats()["warm_cache"]
        assert warm["entries"] == 1
        assert warm["misses"] >= 1
        assert warm["hits"] >= 2

    def test_concurrent_mixed_dtypes(self, client):
        jobs = [
            job_payload(dtype=d, seed=s, factors_seed=i)
            for i, (d, s) in enumerate(
                [("float64", 0), ("float32", 0), ("float64", 1), ("float32", 1)]
            )
        ] * 2
        results = [None] * len(jobs)

        def submit(i):
            results[i] = client.submit(jobs[i])

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(len(jobs))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for job, resp in zip(jobs, results):
            assert resp["ok"], resp
            assert_bitwise_identical(resp, job)
        counters = client.stats()["counters"]
        assert counters["completed"] == len(jobs)

    def test_deadline_expiry(self, client):
        # A microscopic deadline lapses before (or during) execution; the
        # job must resolve as expired either way, never hang or complete.
        resp = client.submit(job_payload(), deadline_ms=0.01)
        assert not resp["ok"]
        assert resp["error"]["code"] == "deadline_expired"
        assert resp["state"] == "expired"
        assert client.stats()["counters"].get("deadline_expired", 0) >= 1

    def test_zero_deadline_rejected(self, client):
        resp = client.submit(job_payload(), deadline_ms=0)
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_job"


class TestWarmBatchPath:
    """Per-phase stats, the warm-hit counters and the signature memo."""

    def test_phases_populated_and_sum_to_latency(self, client):
        from repro.serve.server import PHASES

        assert client.submit(job_payload())["ok"]
        stats = client.stats()
        phases = stats["phases_ms"]
        assert tuple(phases) == PHASES
        assert all(phases[name]["count"] == 1 for name in PHASES)
        assert phases["execute"]["p50"] > 0 and phases["tune"]["p50"] > 0
        latency = stats["latency_ms"]
        # One sample per histogram: each p50 is reported within one
        # bucket (growth 1.3) of the recorded value, the mean exactly.
        total = sum(phases[name]["p50"] for name in PHASES)
        assert total == pytest.approx(latency["p50"], rel=0.3)
        mean_total = sum(phases[name]["mean"] for name in PHASES)
        assert mean_total == pytest.approx(latency["mean"], rel=1e-9)

    def test_drain_report_carries_phases(self):
        client = ServeClient.start(ServeConfig(port=None))
        try:
            assert client.submit(job_payload())["ok"]
        finally:
            report = client.close()
        assert report["phases_ms"]["execute"]["count"] == 1

    def test_warm_counters_emitted(self):
        from repro.obs import Tracer, to_metrics_doc, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            client = ServeClient.start(ServeConfig(port=None))
            try:
                assert not client.submit(job_payload())["tuned"]["from_cache"]
                assert client.submit(job_payload())["tuned"]["from_cache"]
                counters = client.stats()["counters"]
            finally:
                client.close()
        assert counters["warm_misses"] == 1 and counters["warm_hits"] == 1
        assert tracer.counters["serve.warm_misses"] == 1
        assert tracer.counters["serve.warm_hits"] == 1
        units = {c["name"]: c["unit"] for c in to_metrics_doc(tracer)["counters"]}
        assert units["serve.warm_hits"] == "hits"
        assert units["serve.warm_misses"] == "misses"

    def test_signature_computed_once_per_tensor(self, client, monkeypatch):
        from repro.tune import TensorSignature

        calls = []
        real = TensorSignature.of

        def spy(tensor, mode):
            calls.append(mode)
            return real(tensor, mode)

        monkeypatch.setattr(TensorSignature, "of", spy)
        for i in range(3):
            assert client.submit(job_payload(factors_seed=i))["ok"]
        assert calls == [0]


class TestCancellation:
    def test_cancel_unknown_job(self, client):
        resp = client.cancel("never-submitted")
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_job"

    def test_cancel_racing_completion_is_consistent(self, client):
        # Fire a submit and cancel it from this thread as fast as
        # possible.  The outcome is timing-dependent by design; the
        # *consistency* between the cancel response and the terminal
        # submit response is not.
        box = {}

        def submitter():
            box["resp"] = client.submit(job_payload(), job_id="race-1")

        t = threading.Thread(target=submitter)
        t.start()
        cancel = None
        for _ in range(2000):
            cancel = client.cancel("race-1")
            if cancel["ok"] or not t.is_alive():
                break
        t.join(timeout=60)
        resp = box["resp"]
        assert resp["state"] in ("completed", "cancelled")
        if cancel is not None and cancel["ok"]:
            if cancel["observed_state"] == "queued":
                # Cancelled in-queue: terminal response must agree.
                assert resp["state"] == "cancelled"
                assert resp["error"]["code"] == "cancelled"
            elif not cancel["accepted"]:
                # Too late: the observed terminal state is the outcome.
                assert cancel["observed_state"] == resp["state"]
        if resp["state"] == "cancelled":
            assert client.stats()["counters"].get("cancelled", 0) >= 1

    def test_cancel_after_completion_reports_terminal(self, client):
        resp = client.submit(job_payload(), job_id="done-1")
        assert resp["ok"]
        cancel = client.cancel("done-1")
        assert cancel["ok"]
        assert cancel["accepted"] is False
        assert cancel["observed_state"] == "completed"


class TestAdmissionPaths:
    """Typed-rejection paths, driven deterministically by staging the
    server state by hand (no dispatcher, no timing)."""

    @staticmethod
    def _handle(server, request):
        return asyncio.run(server.handle(request))

    def test_queue_full_rejection_with_retry_hint(self):
        server = ServeServer(ServeConfig(port=None, queue_limit=1))
        server._state = "serving"
        blocker = Job("blocker", JobSpec.from_payload(job_payload()))
        server.queue.offer(blocker)
        resp = self._handle(
            server, {"op": "submit", "id": "q", "job": job_payload()}
        )
        assert not resp["ok"]
        assert resp["error"]["code"] == "queue_full"
        assert resp["retry_after_ms"] > 0
        assert server.stats.get("rejected_full") == 1
        # The rejected job must not linger in the ledger.
        assert server._jobs == {}

    def test_shutting_down_rejection(self):
        server = ServeServer(ServeConfig(port=None))
        server._state = "draining"
        resp = self._handle(
            server, {"op": "submit", "id": "s", "job": job_payload()}
        )
        assert not resp["ok"]
        assert resp["error"]["code"] == "shutting_down"

    def test_duplicate_live_job_id_rejected(self):
        server = ServeServer(ServeConfig(port=None))
        server._state = "serving"
        live = Job("dup", JobSpec.from_payload(job_payload()))
        server._jobs["dup"] = live
        resp = self._handle(
            server,
            {"op": "submit", "id": "d", "job": job_payload(), "job_id": "dup"},
        )
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_job"
        assert "already live" in resp["error"]["message"]

    def test_overlong_job_id_rejected(self):
        server = ServeServer(ServeConfig(port=None))
        server._state = "serving"
        resp = self._handle(
            server,
            {"op": "submit", "id": "l", "job": job_payload(),
             "job_id": "x" * 65},
        )
        assert not resp["ok"]
        assert resp["error"]["code"] == "invalid_job"

    def test_tensor_cache_is_bounded_lru(self):
        server = ServeServer(ServeConfig(port=None, tensor_cache_entries=2))
        specs = [
            JobSpec.from_payload(job_payload(seed=s)) for s in range(4)
        ]
        for spec in specs:
            server._tensor_for(spec)
        assert len(server._tensors) == 2
        # Most recent refs stay resident; a re-request rebuilds cheaply.
        assert specs[3].tensor.key() in server._tensors


class TestDrain:
    def test_drain_completes_admitted_work(self):
        client = ServeClient.start(ServeConfig(port=None))
        try:
            for i in range(4):
                assert client.submit(job_payload(factors_seed=i))["ok"]
        finally:
            report = client.close()
        assert report["drained"] is True
        assert report["queue_depth"] == 0
        assert report["server_state"] == "stopped"
        assert report["completed"] == 4
        server = client.handle.server
        assert server.state == "stopped"
        assert server.pool.closed

    def test_drain_op_then_submit_rejected(self):
        client = ServeClient.start(ServeConfig(port=None))
        try:
            assert client.submit(job_payload())["ok"]
            drain = client.drain()
            assert drain["ok"] and drain["drained"] is True
            resp = client.submit(job_payload())
            assert not resp["ok"]
            assert resp["error"]["code"] == "shutting_down"
        finally:
            client.close()
