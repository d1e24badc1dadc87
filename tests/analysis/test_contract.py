"""Kernel-contract checker (KC1xx) and the runtime registration contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import run_check
from repro.analysis.contract import duplicate_name_diagnostics, scan_source
from repro.kernels.base import KERNELS, Kernel, check_factors, register_kernel
from repro.util.errors import RegistrationError, ShapeError
from repro.util.validation import VALUE_DTYPE

#: A kernel module violating most of the contract at once; the test pins
#: exactly which rules fire (and that the conformant repo stays clean).
BAD_KERNEL_SOURCE = '''\
import numpy as np

from repro.kernels.base import Kernel, Plan, register_kernel


class BadPlan(Plan):
    def nnz(self):
        return 0


class BadKernel(Kernel):
    name = "badk"

    def prepare(self, coo, m):
        return BadPlan()

    def execute(self, plan, factors):
        out = np.zeros((3, 4))
        for i in range(len(factors)):
            out[0] += factors[i][0]
        return out


class DupKernel(Kernel):
    name = "badk"

    def prepare(self, tensor, mode, **params):
        return BadPlan()

    def execute(self, plan, factors, out=None):
        return None


register_kernel(BadKernel())
register_kernel(DupKernel)
'''


def _rules(diags):
    return sorted(d.rule for d in diags)


class TestSelfCheck:
    def test_repo_is_clean(self):
        """The self-hosted run CI gates on: zero findings over src/repro."""
        result = run_check()
        assert result.files_checked > 50
        assert _rules(result.diagnostics) == []
        assert result.exit_code == 0


class TestSeededViolations:
    @pytest.fixture(scope="class")
    def seeded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("seed")
        (root / "kernels").mkdir()
        (root / "kernels" / "bad.py").write_text(BAD_KERNEL_SOURCE)
        return root, run_check([root])

    def test_nonzero_exit(self, seeded):
        _, result = seeded
        assert result.exit_code == 1
        assert result.errors > 0

    def test_expected_rules_fire(self, seeded):
        _, result = seeded
        fired = set(_rules(result.diagnostics))
        # BadPlan: no block_stats, no kernel_name, nnz as a plain method.
        # BadKernel: bad prepare/execute signatures, no alloc_output /
        # check_factors.  DupKernel: duplicate name, class-not-instance
        # registration (plus its own missing alloc/check calls).
        assert {
            "KC101",
            "KC103",
            "KC104",
            "KC105",
            "KC106",
            "KC107",
            "KC108",
            "KC109",
            "KC110",
        } <= fired

    def test_locations_point_into_the_seed(self, seeded):
        root, result = seeded
        for d in result.diagnostics:
            assert d.file.endswith("bad.py")
            assert d.line >= 1
            assert d.message
        # KC110 anchors on the offending method, not the class.
        (kc110,) = [d for d in result.diagnostics if d.rule == "KC110"]
        assert "nnz" in kc110.message

    def test_select_and_ignore(self, seeded):
        root, _ = seeded
        only_kc = run_check([root], select={"KC103", "KC104"})
        assert set(_rules(only_kc.diagnostics)) == {"KC103", "KC104"}
        no_kc = run_check(
            [root], ignore={f"KC{n}" for n in range(101, 112)}
        )
        assert not any(r.startswith("KC") for r in _rules(no_kc.diagnostics))


class TestScanSource:
    def test_conformant_kernel_is_clean(self):
        src = '''
from repro.kernels.base import Kernel, Plan, register_kernel, alloc_output, check_factors

class GoodPlan(Plan):
    kernel_name = "good"
    def block_stats(self):
        return []

class GoodKernel(Kernel):
    name = "good"
    def prepare(self, tensor, mode, **params):
        return GoodPlan()
    def execute(self, plan, factors, out=None):
        factors, rank = check_factors(factors, plan.shape, plan.mode)
        return alloc_output(out, 1, rank)

register_kernel(GoodKernel())
'''
        scan = scan_source(src, "good.py")
        assert scan.diagnostics == []
        assert [r.registry_name for r in scan.registrations] == ["good"]

    def test_instance_level_kernel_name_accepted(self):
        src = '''
from repro.kernels.base import Plan

class P(Plan):
    def __init__(self):
        self.kernel_name = "dynamic"
    def block_stats(self):
        return []
'''
        assert scan_source(src, "p.py").diagnostics == []

    def test_keyword_only_out_accepted(self):
        src = '''
from repro.kernels.base import Kernel

class K(Kernel):
    name = "k"
    def prepare(self, tensor, mode, **params):
        return None
    def execute(self, plan, factors, *, out=None):
        return alloc_output(out, 1, 1) or check_factors(factors, (1,), 0)
'''
        assert scan_source(src, "k.py").diagnostics == []

    def test_duplicate_names_cross_file(self):
        a = scan_source(
            'class A(Kernel):\n name = "x"\n'
            ' def prepare(self, tensor, mode, **p): return alloc_output\n'
            ' def execute(self, plan, factors, out=None):'
            ' return alloc_output(check_factors())\nregister_kernel(A())\n',
            "a.py",
        )
        b = scan_source(
            'class B(Kernel):\n name = "x"\n'
            ' def prepare(self, tensor, mode, **p): return alloc_output\n'
            ' def execute(self, plan, factors, out=None):'
            ' return alloc_output(check_factors())\nregister_kernel(B())\n',
            "b.py",
        )
        dups = duplicate_name_diagnostics(a.registrations + b.registrations)
        assert _rules(dups) == ["KC101"]
        assert "'x'" in dups[0].message

    def test_registry_name_read_from_registration_call(self):
        """One class registered under several instance names (the kernel
        presets) owns each name once; reusing a name is still KC101."""
        body = (
            'class K(Kernel):\n name = "k"\n'
            " def __init__(self, name=None): pass\n"
            " def prepare(self, tensor, mode, **p): return alloc_output\n"
            " def execute(self, plan, factors, out=None):"
            " return alloc_output(check_factors())\n"
        )
        presets = scan_source(
            body + 'register_kernel(K())\nregister_kernel(K("k2"))\n'
            'register_kernel(K(name="k3"))\n',
            "k.py",
        )
        assert presets.diagnostics == []
        assert [r.registry_name for r in presets.registrations] == [
            "k", "k2", "k3"
        ]
        assert duplicate_name_diagnostics(presets.registrations) == []
        clash = scan_source(body + 'register_kernel(K("k"))\n', "c.py")
        dups = duplicate_name_diagnostics(
            presets.registrations + clash.registrations
        )
        assert _rules(dups) == ["KC101"]

    def test_instance_name_satisfies_kc102(self):
        src = (
            "class K(Kernel):\n"
            " def __init__(self, name): self.name = name\n"
            " def prepare(self, tensor, mode, **p): return alloc_output\n"
            " def execute(self, plan, factors, out=None):"
            " return alloc_output(check_factors())\n"
        )
        assert _rules(scan_source(src, "k.py").diagnostics) == ["KC102"]
        named = scan_source(src + 'register_kernel(K("named"))\n', "k.py")
        assert named.diagnostics == []


class _ToyKernel(Kernel):
    name = "toy-registry-test"

    def prepare(self, tensor, mode, **params):  # pragma: no cover - unused
        raise NotImplementedError

    def execute(self, plan, factors, out=None):  # pragma: no cover - unused
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
