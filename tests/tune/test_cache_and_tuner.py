"""Tests for the tuning cache and search strategies."""

import pytest

from repro.machine import power8_socket
from repro.tensor import poisson_tensor
from repro.tune import TensorSignature, Tuner, TuningCache
from repro.tune.cache import CacheEntry
from repro.util import ConfigError


@pytest.fixture(scope="module")
def setup():
    tensor = poisson_tensor((40, 200, 60), 15_000, seed=31, concentration=0.2)
    machine = power8_socket().scaled(1.0 / 128.0)
    return tensor, machine


class TestCache:
    def test_put_get(self):
        cache = TuningCache()
        entry = CacheEntry((1, 4, 1), 32, 0.005, "heuristic")
        cache.put("sig", 128, "m", entry)
        assert cache.get("sig", 128, "m") == entry
        assert cache.get("sig", 64, "m") is None
        assert len(cache) == 1

    def test_save_load_roundtrip(self, tmp_path):
        cache = TuningCache()
        cache.put("a", 16, "m1", CacheEntry((2, 2, 2), None, 1.0, "exhaustive"))
        cache.put("b", 32, "m2", CacheEntry(None, 48, 2.0, "heuristic"))
        path = tmp_path / "tune.json"
        cache.save(path)
        loaded = TuningCache.load(path)
        assert len(loaded) == 2
        assert loaded.get("a", 16, "m1").block_counts == (2, 2, 2)
        assert loaded.get("b", 32, "m2").rank_blocking().block_cols == 48

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError):
            TuningCache.load(path)

    def test_merge_prefers_cheaper(self):
        a = TuningCache()
        b = TuningCache()
        a.put("s", 16, "m", CacheEntry(None, None, 5.0, "random"))
        b.put("s", 16, "m", CacheEntry((2, 2, 2), None, 1.0, "exhaustive"))
        a.merge(b)
        assert a.get("s", 16, "m").cost == 1.0


class TestTuner:
    def test_heuristic_beats_baseline(self, setup):
        tensor, machine = setup
        tuner = Tuner(tensor, 0, machine)
        result = tuner.tune(256, "heuristic")
        assert result.cost <= result.baseline_cost
        assert result.speedup >= 1.0

    def test_exhaustive_at_least_as_good(self, setup):
        tensor, machine = setup
        tuner = Tuner(tensor, 0, machine)
        heur = tuner.tune(128, "heuristic")
        exh = tuner.tune(128, "exhaustive", max_blocks_per_mode=8)
        assert exh.cost <= heur.cost * 1.001

    def test_unknown_strategy(self, setup):
        tensor, machine = setup
        with pytest.raises(ConfigError):
            Tuner(tensor, 0, machine).tune(64, "simulated-annealing")

    def test_get_or_tune_caches(self, setup):
        tensor, machine = setup
        cache = TuningCache()
        tuner = Tuner(tensor, 0, machine, cache=cache)
        first = tuner.get_or_tune(256)
        assert not first.from_cache
        assert len(cache) == 1
        second = tuner.get_or_tune(256)
        assert second.from_cache
        assert second.block_counts == first.block_counts
        assert second.n_evaluations == 0

    def test_cache_transfers_across_same_structure(self, setup):
        """A tensor with the same signature reuses the stored config."""
        tensor, machine = setup
        other = poisson_tensor((40, 200, 60), 15_000, seed=77, concentration=0.2)
        if TensorSignature.of(other, 0) != TensorSignature.of(tensor, 0):
            pytest.skip("draws landed in different signature buckets")
        cache = TuningCache()
        Tuner(tensor, 0, machine, cache=cache).get_or_tune(256)
        reused = Tuner(other, 0, machine, cache=cache).get_or_tune(256)
        assert reused.from_cache


class TestWarmHitPath:
    """A cache hit is a lookup plus a grid/strip soundness check: no plan
    is built, no model is evaluated, and the recorded costs come back."""

    @staticmethod
    def _forbid_model(monkeypatch):
        import repro.perf.model as model
        import repro.tune.tuner as tuner_mod

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm hit built a plan or ran the model")

        monkeypatch.setattr(model, "prepare_plan", forbidden)
        monkeypatch.setattr(model, "predict_time", forbidden)
        monkeypatch.setattr(tuner_mod, "predict_time", forbidden)

    def test_warm_hit_builds_no_plan_and_runs_no_model(self, setup, monkeypatch):
        tensor, machine = setup
        cache = TuningCache()
        miss = Tuner(tensor, 0, machine, cache=cache).get_or_tune(128)
        assert not miss.from_cache and miss.n_evaluations > 0
        self._forbid_model(monkeypatch)
        hit = Tuner(tensor, 0, machine, cache=cache).get_or_tune(128)
        assert hit.from_cache
        assert hit.n_evaluations == 0
        assert (hit.block_counts, hit.rank_blocking) == (
            miss.block_counts, miss.rank_blocking,
        )
        assert hit.cost == miss.cost
        assert hit.baseline_cost == miss.baseline_cost
        assert hit.speedup == miss.speedup

    def test_given_signature_is_used(self, setup, monkeypatch):
        tensor, machine = setup
        sig = TensorSignature.of(tensor, 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("signature recomputed")

        monkeypatch.setattr(TensorSignature, "of", forbidden)
        assert Tuner(tensor, 0, machine, signature=sig).signature is sig
        with pytest.raises(ConfigError):
            Tuner(tensor, 1, machine, signature=sig)

    @pytest.mark.parametrize(
        "counts", [None, (1, 1, 1), (2, 4, 2), (12, 10, 8), (13, 1, 1), (0, 1, 1)]
    )
    @pytest.mark.parametrize(
        "rb",
        [
            None,
            dict(block_cols=16),
            dict(block_cols=5, register_block=4),
            dict(n_blocks=3),
            dict(n_blocks=64),  # more strips than rank columns: PL403
        ],
    )
    def test_verify_matches_plan_verifier(self, counts, rb):
        """The shape-only check reports exactly what ``verify_plan`` proves
        of the built plan — or raises exactly what the plan build raises."""
        from repro.analysis.diagnostics import Severity
        from repro.analysis.plans import verify_plan
        from repro.blocking.rank import RankBlocking
        from repro.machine import power8

        tensor = poisson_tensor((12, 10, 8), 400, seed=5)
        rank = 32
        rb = None if rb is None else RankBlocking(**rb)
        tuner = Tuner(tensor, 0, power8(64))

        def outcome(fn):
            try:
                return fn()
            except Exception as exc:  # compared by type and message
                return (type(exc), str(exc))

        old = outcome(
            lambda: verify_plan(tuner.planner.plan_for(counts, rb), rank=rank)
        )
        new = outcome(lambda: tuner._diagnostics(counts, rb, rank))
        assert new == old
        if isinstance(old, list):
            errors = [d for d in old if d.severity is Severity.ERROR]
            if errors:
                with pytest.raises(ConfigError, match="plan verification"):
                    tuner._verify(counts, rb, rank, "cached")
            else:
                tuner._verify(counts, rb, rank, "cached")
        # The cases cover both outcomes of the proof.
        if counts == (1, 1, 1) and rb is not None and rb.n_blocks == 64:
            assert old and old[0].rule == "PL403"

    @pytest.mark.parametrize(
        "unsound",
        [
            CacheEntry((4096, 1, 1), None, 1e-9, "heuristic", itemsize=8,
                       baseline_cost=1.0),
            CacheEntry(None, 0, 1e-9, "heuristic", itemsize=8,
                       baseline_cost=1.0),
        ],
        ids=["counts-exceed-shape", "zero-width-strips"],
    )
    def test_unsound_entry_is_retuned(self, setup, unsound):
        tensor, machine = setup
        cache = TuningCache()
        tuner = Tuner(tensor, 0, machine, cache=cache)
        cache.put(tuner.signature.key(), 128, machine.name, unsound)
        result = tuner.get_or_tune(128)
        assert not result.from_cache
        assert result.n_evaluations > 0
        stored = cache.get(tuner.signature.key(), 128, machine.name)
        assert stored != unsound
        assert stored.baseline_cost == result.baseline_cost
        assert Tuner(tensor, 0, machine, cache=cache).get_or_tune(128).from_cache

    def test_entry_without_baseline_is_a_miss(self, setup):
        tensor, machine = setup
        cache = TuningCache()
        tuner = Tuner(tensor, 0, machine, cache=cache)
        unpriced = CacheEntry(None, None, 1.0, "heuristic", itemsize=8)
        cache.put(tuner.signature.key(), 128, machine.name, unpriced)
        result = tuner.get_or_tune(128)
        assert not result.from_cache
        stored = cache.get(tuner.signature.key(), 128, machine.name)
        assert stored.baseline_cost == result.baseline_cost > 0

    def test_baseline_cost_roundtrips(self, tmp_path):
        entry = CacheEntry((2, 2, 2), 32, 0.5, "heuristic", itemsize=8,
                           baseline_cost=0.75)
        assert entry.to_dict()["baseline_cost"] == 0.75
        assert CacheEntry.from_dict(entry.to_dict()) == entry
        cache = TuningCache()
        cache.put("s", 64, "m", entry)
        cache.save(tmp_path / "tune.json")
        assert TuningCache.load(tmp_path / "tune.json").get("s", 64, "m") == entry
        legacy = CacheEntry.from_dict(
            {"block_counts": None, "cost": 0.5, "strategy": "heuristic",
             "itemsize": 8}
        )
        assert legacy.baseline_cost is None


class TestDtypeAwareCache:
    """Float32 and float64 runs must not share tuning entries: the traffic
    model's working sets halve at itemsize 4, so the tuned configuration
    (and its cost) is dtype-specific."""

    @staticmethod
    def _as32(tensor):
        import numpy as np

        from repro.tensor.coo import COOTensor

        return COOTensor(
            tensor.shape, tensor.indices, tensor.values.astype(np.float32)
        )

    def test_signature_key_differs_by_dtype(self, setup):
        tensor, _ = setup
        t32 = self._as32(tensor)
        sig64 = TensorSignature.of(tensor, 0)
        sig32 = TensorSignature.of(t32, 0)
        assert sig64.itemsize == 8 and sig32.itemsize == 4
        assert sig64.key() != sig32.key()
        # Only the dtype suffix differs: the structural fingerprint is
        # identical (same coordinates, same histogram).
        assert sig64.key().rsplit("_b", 1)[0] == sig32.key().rsplit("_b", 1)[0]

    def test_float32_retune_gets_distinct_entry(self, setup):
        tensor, machine = setup
        t32 = self._as32(tensor)
        cache = TuningCache()
        first = Tuner(tensor, 0, machine, cache=cache).get_or_tune(128)
        assert not first.from_cache
        # The float64 tuning must not be served to the float32 run...
        second = Tuner(t32, 0, machine, cache=cache).get_or_tune(128)
        assert not second.from_cache
        assert len(cache) == 2  # ...it gets its own entry
        # ...and both runs hit their own entry afterwards.
        assert Tuner(t32, 0, machine, cache=cache).get_or_tune(128).from_cache
        assert Tuner(tensor, 0, machine, cache=cache).get_or_tune(128).from_cache

    def test_legacy_entry_without_itemsize_is_a_miss(self, setup):
        tensor, machine = setup
        cache = TuningCache()
        tuner = Tuner(tensor, 0, machine, cache=cache)
        # A pre-dtype-era entry stored under today's key (itemsize=None,
        # as CacheEntry.from_dict produces for legacy files).
        legacy = CacheEntry(None, None, 1.0, "heuristic", itemsize=None)
        cache.put(tuner.signature.key(), 128, machine.name, legacy)
        result = tuner.get_or_tune(128)
        assert not result.from_cache  # legacy entry read as a miss
        stored = cache.get(tuner.signature.key(), 128, machine.name)
        assert stored.itemsize == 8  # re-tuned entry records its dtype

    def test_from_dict_legacy_roundtrip(self):
        entry = CacheEntry.from_dict(
            {"block_counts": [2, 2, 2], "cost": 0.5, "strategy": "heuristic"}
        )
        assert entry.itemsize is None
        modern = CacheEntry.from_dict(
            {"block_counts": None, "cost": 0.5, "strategy": "heuristic",
             "itemsize": 4}
        )
        assert modern.itemsize == 4


def _entry(cost=1.0, itemsize=8):
    return CacheEntry((2, 2, 2), None, cost, "heuristic", itemsize=itemsize)


class TestBoundedCache:
    """The serve-facing bounds: LRU size cap and TTL expiry."""

    def test_bad_bounds_rejected(self):
        with pytest.raises(ConfigError):
            TuningCache(max_entries=0)
        with pytest.raises(ConfigError):
            TuningCache(ttl_s=0)

    def test_lru_evicts_oldest(self):
        cache = TuningCache(max_entries=2)
        cache.put("a", 8, "m", _entry())
        cache.put("b", 8, "m", _entry())
        cache.put("c", 8, "m", _entry())
        assert len(cache) == 2
        assert cache.n_evicted == 1
        assert cache.get("a", 8, "m") is None
        assert cache.get("b", 8, "m") is not None

    def test_get_refreshes_recency(self):
        cache = TuningCache(max_entries=2)
        cache.put("a", 8, "m", _entry())
        cache.put("b", 8, "m", _entry())
        # Touch "a": "b" becomes the LRU victim.
        assert cache.get("a", 8, "m") is not None
        cache.put("c", 8, "m", _entry())
        assert cache.get("a", 8, "m") is not None
        assert cache.get("b", 8, "m") is None

    def test_ttl_expiry_with_injected_clock(self):
        now = {"t": 1000.0}

        def clock():
            return now["t"]

        cache = TuningCache(ttl_s=10.0, clock=clock)
        cache.put("a", 8, "m", _entry())
        stored = cache.get("a", 8, "m")
        assert stored is not None and stored.created_unix == 1000.0
        now["t"] = 1009.0
        assert cache.get("a", 8, "m") is not None
        now["t"] = 1011.0
        assert cache.get("a", 8, "m") is None  # aged out: forced re-tune
        assert cache.n_expired == 1
        assert len(cache) == 0

    def test_unbounded_put_leaves_entry_unstamped(self):
        # The PR 5 contract: without a TTL, get returns the entry as
        # stored (callers compare dataclasses by value).
        cache = TuningCache()
        entry = _entry()
        cache.put("a", 8, "m", entry)
        assert cache.get("a", 8, "m") == entry
        assert cache.get("a", 8, "m").created_unix is None

    def test_ttl_survives_save_load(self, tmp_path):
        now = {"t": 500.0}

        def clock():
            return now["t"]

        cache = TuningCache(ttl_s=60.0, clock=clock)
        cache.put("a", 8, "m", _entry())
        path = tmp_path / "tune.json"
        cache.save(path)
        # Ages persist: a reload 100s later reads the entry as expired.
        now["t"] = 600.0
        fresh = TuningCache.load(path, ttl_s=60.0, clock=clock)
        assert fresh.get("a", 8, "m") is None
        stale_free = TuningCache.load(path)  # unbounded load: still there
        assert stale_free.get("a", 8, "m") is not None


class TestWarmConfigCache:
    """The serve admission policy over the bounded cache, including the
    cross-dtype collision contract from the dtype-aware tuner tests."""

    def _warm(self, **kw):
        from repro.serve import WarmConfigCache

        return WarmConfigCache(**kw)

    def test_counts_hits_and_misses(self):
        warm = self._warm(max_entries=4)
        assert warm.get("a", 8, "m") is None
        warm.put("a", 8, "m", _entry())
        assert warm.get("a", 8, "m") is not None
        stats = warm.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["entries"] == 1

    def test_admit_after_gates_one_off_signatures(self):
        warm = self._warm(max_entries=4, admit_after=3)
        warm.put("scan", 8, "m", _entry())
        warm.put("scan", 8, "m", _entry())
        # Two sightings < admit_after: both denied, nothing cached.
        assert warm.get("scan", 8, "m") is None
        assert warm.stats()["denied"] == 2
        warm.put("scan", 8, "m", _entry())  # third sighting sticks
        assert warm.get("scan", 8, "m") is not None

    def test_admit_after_validation(self):
        with pytest.raises(ValueError):
            self._warm(admit_after=0)

    def test_ttl_eviction_vs_cross_dtype_collisions(self, setup):
        """TTL expiry of one dtype's entry must not disturb the other
        dtype's: the signature keys differ by the ``_b<itemsize>``
        suffix, so the two entries age and evict independently."""
        tensor, _ = setup
        t32 = TestDtypeAwareCache._as32(tensor)
        sig64 = TensorSignature.of(tensor, 0).key()
        sig32 = TensorSignature.of(t32, 0).key()
        assert sig64 != sig32
        now = {"t": 0.0}

        def clock():
            return now["t"]

        warm = self._warm(max_entries=8, ttl_s=10.0, clock=clock)
        warm.put(sig64, 8, "m", _entry(itemsize=8))
        now["t"] = 6.0
        warm.put(sig32, 8, "m", _entry(itemsize=4))
        assert warm.stats()["entries"] == 2
        # f64 entry ages out first; the f32 twin must survive.
        now["t"] = 11.0
        assert warm.get(sig64, 8, "m") is None
        hit32 = warm.get(sig32, 8, "m")
        assert hit32 is not None and hit32.itemsize == 4
        assert warm.stats()["expired"] == 1

    def test_lru_eviction_keeps_hot_dtype_entry(self):
        warm = self._warm(max_entries=2)
        warm.put("sig_b8", 8, "m", _entry(itemsize=8))
        warm.put("sig_b4", 8, "m", _entry(itemsize=4))
        # Keep the f32 entry hot; a third signature evicts the f64 one.
        assert warm.get("sig_b4", 8, "m") is not None
        warm.put("other_b8", 8, "m", _entry(itemsize=8))
        assert warm.get("sig_b4", 8, "m") is not None
        assert warm.get("sig_b8", 8, "m") is None
        assert warm.stats()["evicted"] == 1

    def test_tuner_integration_under_admission_gate(self, setup):
        """With admit_after=2, the first tuned config is denied; the
        signature re-tunes once more, then hits thereafter — and the
        float32 twin still never shares the float64 entry."""
        tensor, machine = setup
        t32 = TestDtypeAwareCache._as32(tensor)
        warm = self._warm(max_entries=8, admit_after=2)
        first = Tuner(tensor, 0, machine, cache=warm).get_or_tune(128)
        assert not first.from_cache
        assert warm.stats()["entries"] == 0  # denied: one sighting
        second = Tuner(tensor, 0, machine, cache=warm).get_or_tune(128)
        assert not second.from_cache  # re-tuned, now admitted
        third = Tuner(tensor, 0, machine, cache=warm).get_or_tune(128)
        assert third.from_cache
        # The admitted f64 entry is invisible to the f32 run.
        other = Tuner(t32, 0, machine, cache=warm).get_or_tune(128)
        assert not other.from_cache
