"""Tests for tensor fingerprinting."""

from repro.tensor import poisson_tensor, power_law_tensor, uniform_random_tensor
from repro.tune import TensorSignature


class TestSignature:
    def test_deterministic(self):
        t = poisson_tensor((30, 40, 35), 2000, seed=1)
        assert TensorSignature.of(t, 0) == TensorSignature.of(t, 0)

    def test_mode_matters(self):
        t = uniform_random_tensor((16, 256, 16), 3000, seed=2)
        assert TensorSignature.of(t, 0) != TensorSignature.of(t, 1)

    def test_same_structure_same_signature(self):
        """Two draws of the same generator share a fingerprint (the whole
        point: tuning transfers)."""
        a = uniform_random_tensor((64, 128, 64), 5000, seed=3)
        b = uniform_random_tensor((64, 128, 64), 5000, seed=4)
        assert TensorSignature.of(a, 0) == TensorSignature.of(b, 0)

    def test_different_scale_different_signature(self):
        a = uniform_random_tensor((32, 32, 32), 1000, seed=5)
        b = uniform_random_tensor((256, 256, 256), 64_000, seed=5)
        assert TensorSignature.of(a, 0) != TensorSignature.of(b, 0)

    def test_skew_detected(self):
        flat = uniform_random_tensor((64, 4096, 64), 20_000, seed=6)
        skewed = power_law_tensor((64, 4096, 64), 20_000, alphas=(0.5, 1.6, 0.5), seed=6)
        assert (
            TensorSignature.of(skewed, 0).skew_decile
            > TensorSignature.of(flat, 0).skew_decile
        )

    def test_key_stable_and_parseable(self):
        t = poisson_tensor((30, 40, 35), 2000, seed=7)
        sig = TensorSignature.of(t, 2)
        key = sig.key()
        assert key == TensorSignature.of(t, 2).key()
        assert "_m2" in key
        # The key ends with the value itemsize (float64 here).
        assert key.endswith("_b8")

    def test_key_itemsize_helper(self):
        from repro.tune.signature import key_itemsize

        t = poisson_tensor((30, 40, 35), 2000, seed=7)
        key = TensorSignature.of(t, 0).key()
        assert key_itemsize(key) == 8
        # Legacy keys (written before the dtype field) carry no suffix.
        assert key_itemsize("s5-5-5_n8_f1_r3_k0.1_m2") is None

    def test_to_dict_roundtrippable(self):
        t = poisson_tensor((30, 40, 35), 2000, seed=8)
        d = TensorSignature.of(t, 0).to_dict()
        assert isinstance(d["shape_buckets"], list)
        assert "nnz_bucket" in d

    def test_higher_order_supported(self):
        t = uniform_random_tensor((8, 9, 10, 11), 500, seed=9)
        sig = TensorSignature.of(t, 1)
        assert sig.mode == 1
