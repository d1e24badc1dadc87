"""The runtime kernel contract: the one ``Kernel.execute`` entry point,
the registry's checks in ``register_kernel``, and ``check_factors``."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels.base import (
    KERNELS,
    Kernel,
    check_factors,
    get_kernel,
    register_kernel,
)
from repro.kernels.csf_mttkrp import CSFKernel
from repro.util.errors import RegistrationError, ShapeError
from repro.util.validation import VALUE_DTYPE

#: ``prepare`` parameters for every registered kernel.
PREPARE_PARAMS = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2)},
}


class _ToyKernel(Kernel):
    name = "toy-registry-test"

    def prepare(self, tensor, mode, **params):  # pragma: no cover - unused
        raise NotImplementedError

    def run(self, plan, factors, A):  # pragma: no cover - unused
        raise NotImplementedError


class TestRegistryRuntime:
    @pytest.fixture(autouse=True)
    def _clean_registry(self):
        yield
        KERNELS.pop("toy-registry-test", None)

    def test_duplicate_name_raises(self):
        register_kernel(_ToyKernel())
        with pytest.raises(RegistrationError, match="already registered"):
            register_kernel(_ToyKernel())

    def test_same_instance_is_idempotent(self):
        k = _ToyKernel()
        assert register_kernel(k) is k
        assert register_kernel(k) is k

    def test_replace_overrides(self):
        register_kernel(_ToyKernel())
        k2 = _ToyKernel()
        register_kernel(k2, replace=True)
        assert KERNELS["toy-registry-test"] is k2

    @pytest.mark.parametrize("bad_name", ["", "abstract", None])
    def test_invalid_names_rejected(self, bad_name):
        class BadName(_ToyKernel):
            name = bad_name

        with pytest.raises(RegistrationError, match="non-empty"):
            register_kernel(BadName())


class TestKernelEntryPoint:
    def test_every_kernel_runs_the_base_execute(self):
        # The prologue (check_factors, alloc_output, tracing) lives only
        # in Kernel.execute; a kernel overriding it would skip it.
        for name, kernel in KERNELS.items():
            assert type(kernel).execute is Kernel.execute, name

    def test_registering_a_class_raises(self):
        with pytest.raises(RegistrationError, match="Kernel instance"):
            register_kernel(CSFKernel)
        assert KERNELS["splatt"] is not CSFKernel

    @pytest.mark.parametrize("name", sorted(PREPARE_PARAMS))
    def test_plan_names_its_kernel_and_counts(self, name, small_tensor):
        assert set(PREPARE_PARAMS) == set(KERNELS)
        kernel = get_kernel(name)
        plan = kernel.prepare(small_tensor, 0, **PREPARE_PARAMS[name])
        # The executor and dist recover the kernel from the plan.
        assert get_kernel(plan.kernel_name) is kernel
        # nnz and n_fibers are properties the machine model computes with.
        assert plan.nnz == small_tensor.nnz
        assert 0 < plan.n_fibers <= plan.nnz

    def test_kernel_without_run_cannot_be_instantiated(self):
        class NoRun(Kernel):
            name = "no-run"

            def prepare(self, tensor, mode, **params):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(TypeError, match="run"):
            NoRun()


class TestCheckFactorsTightening:
    SHAPE = (4, 5, 6)

    def _factors(self, rank=3, dtype=np.float64):
        return [np.ones((n, rank), dtype=dtype) for n in self.SHAPE]

    def test_object_dtype_rejected(self):
        factors = self._factors()
        factors[1] = np.array([["a"] * 3] * 5, dtype=object)
        with pytest.raises(ShapeError, match="numeric"):
            check_factors(factors, self.SHAPE, 0)

    def test_complex_rejected(self):
        factors = self._factors()
        factors[2] = factors[2].astype(np.complex128)
        with pytest.raises(ShapeError, match="complex"):
            check_factors(factors, self.SHAPE, 0)

    def test_float32_preserved_and_noncontiguous_coerced(self):
        # float32 is a supported working precision: it must survive
        # check_factors untouched (no silent float64 upcast).
        factors = self._factors(dtype=np.float32)
        factors[1] = np.asfortranarray(factors[1])
        out, rank = check_factors(factors, self.SHAPE, 0)
        assert rank == 3
        for f in out[1:]:
            assert f.dtype == np.float32
            assert f.flags["C_CONTIGUOUS"]

    def test_integer_factors_coerced_to_value_dtype(self):
        factors = self._factors()
        factors[1] = factors[1].astype(np.int32)
        out, _ = check_factors(factors, self.SHAPE, 0)
        for f in out[1:]:
            assert f.dtype == VALUE_DTYPE

    def test_mixed_precision_rejected(self):
        from repro.util.errors import ConfigError

        factors = self._factors(dtype=np.float32)
        factors[2] = factors[2].astype(np.float64)
        with pytest.raises(ConfigError, match="mixed-precision"):
            check_factors(factors, self.SHAPE, 0)
