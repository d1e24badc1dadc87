"""Tests for .tns / .npz tensor IO."""

import io

import numpy as np
import pytest

from repro.tensor import (
    COOTensor,
    load_npz,
    load_tns,
    save_npz,
    save_tns,
    uniform_random_tensor,
)
from repro.util import FormatError, NonFiniteError


class TestTns:
    def test_roundtrip(self, tmp_path):
        t = uniform_random_tensor((9, 11, 13), 150, seed=21)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert load_tns(path).equal(t)

    def test_shape_header_written(self, tmp_path):
        t = uniform_random_tensor((9, 11, 13), 50, seed=22)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert "# shape: 9 11 13" in path.read_text().splitlines()[0]

    def test_explicit_shape_wins(self):
        src = io.StringIO("1 1 1 5.0\n2 2 2 3.0\n")
        t = load_tns(src, shape=(10, 10, 10))
        assert t.shape == (10, 10, 10)

    def test_shape_inferred_from_coords(self):
        src = io.StringIO("1 1 1 5.0\n3 2 4 1.0\n")
        t = load_tns(src)
        assert t.shape == (3, 2, 4)

    def test_one_based_conversion(self):
        src = io.StringIO("1 1 1 5.0\n")
        t = load_tns(src)
        np.testing.assert_array_equal(t.indices[0], [0, 0, 0])

    def test_zero_coordinate_rejected(self):
        src = io.StringIO("0 1 1 5.0\n")
        with pytest.raises(FormatError, match="1-based"):
            load_tns(src)

    def test_ragged_lines_rejected(self):
        src = io.StringIO("1 1 1 5.0\n1 1 2.0\n")
        with pytest.raises(FormatError, match="inconsistent"):
            load_tns(src)

    def test_empty_needs_shape(self):
        with pytest.raises(FormatError):
            load_tns(io.StringIO(""))
        t = load_tns(io.StringIO(""), shape=(2, 3))
        assert t.nnz == 0

    def test_comments_and_blanks_skipped(self):
        src = io.StringIO("# a comment\n\n1 1 1 2.5\n")
        assert load_tns(src).nnz == 1

    def test_gzip_transparent(self, tmp_path):
        import gzip

        t = uniform_random_tensor((6, 7, 8), 40, seed=24)
        plain = tmp_path / "t.tns"
        save_tns(t, plain)
        gz = tmp_path / "t.tns.gz"
        gz.write_bytes(gzip.compress(plain.read_bytes()))
        assert load_tns(gz).equal(t)


class TestNpz:
    def test_roundtrip(self, tmp_path):
        t = uniform_random_tensor((6, 7, 8, 9), 200, seed=23)
        path = tmp_path / "t.npz"
        save_npz(t, path)
        assert load_npz(path).equal(t)

    def test_missing_arrays_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, shape=np.array([2, 2]))
        with pytest.raises(FormatError, match="missing"):
            load_npz(path)


class TestDtypeRoundTrip:
    """float32 must survive save/load (the PR-4/5 precision contract)."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_tns_preserves_dtype(self, tmp_path, dtype):
        t = uniform_random_tensor((9, 11, 13), 120, seed=31)
        t = COOTensor(t.shape, t.indices, t.values.astype(dtype), validate=False)
        path = tmp_path / "t.tns"
        save_tns(t, path)
        back = load_tns(path)
        assert back.values.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back.values, t.values)
        np.testing.assert_array_equal(back.indices, t.indices)
        assert back.shape == t.shape

    def test_tns_dtype_header_written(self, tmp_path):
        t = uniform_random_tensor((4, 5, 6), 20, seed=32)
        t = COOTensor(
            t.shape, t.indices, t.values.astype(np.float32), validate=False
        )
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert "# dtype: float32" in path.read_text().splitlines()[1]

    def test_tns_explicit_dtype_wins(self, tmp_path):
        t = uniform_random_tensor((4, 5, 6), 20, seed=33)
        t = COOTensor(
            t.shape, t.indices, t.values.astype(np.float32), validate=False
        )
        path = tmp_path / "t.tns"
        save_tns(t, path)
        assert load_tns(path, dtype=np.float64).values.dtype == np.float64

    def test_tns_legacy_files_default_to_float64(self):
        # Third-party FROSTT files carry no dtype header.
        src = io.StringIO("1 1 1 5.0\n2 2 2 3.5\n")
        assert load_tns(src).values.dtype == np.float64

    def test_tns_empty_file_honors_dtype(self):
        t = load_tns(io.StringIO(""), shape=(2, 3), dtype=np.float32)
        assert t.nnz == 0
        assert t.values.dtype == np.float32

    def test_tns_bad_dtype_header_rejected(self):
        src = io.StringIO("# dtype: not-a-dtype\n1 1 5.0\n")
        with pytest.raises(FormatError, match="dtype"):
            load_tns(src)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_npz_preserves_dtype(self, tmp_path, dtype):
        t = uniform_random_tensor((6, 7, 8), 60, seed=34)
        t = COOTensor(t.shape, t.indices, t.values.astype(dtype), validate=False)
        path = tmp_path / "t.npz"
        save_npz(t, path)
        back = load_npz(path)
        assert back.values.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(back.values, t.values)

    def test_npz_explicit_dtype_coerces(self, tmp_path):
        t = uniform_random_tensor((6, 7, 8), 60, seed=35)
        path = tmp_path / "t.npz"
        save_npz(t, path)
        assert load_npz(path, dtype=np.float32).values.dtype == np.float32


class TestNonFiniteValues:
    def test_load_tns_rejects_nan(self):
        text = "1 1 1 1.5\n2 3 1 nan\n1 2 2 inf\n"
        with pytest.raises(NonFiniteError, match=r"nonzero 1 at \(1, 2, 0\)"):
            load_tns(io.StringIO(text))

    def test_load_npz_rejects_inf(self, tmp_path):
        t = uniform_random_tensor((5, 6, 7), 20, seed=3)
        path = tmp_path / "t.npz"
        np.savez_compressed(
            path,
            shape=np.asarray(t.shape),
            indices=t.indices,
            values=np.where(np.arange(t.nnz) == 4, np.inf, t.values),
        )
        with pytest.raises(NonFiniteError, match="nonzero 4"):
            load_npz(path)
