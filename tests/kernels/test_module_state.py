"""Kernel and worker bodies leave module state alone.

A kernel's ``prepare``/``execute`` and an executor worker's task write
only into their arguments and the output they return.  A body that
records into a module-level container leaks memory across calls, races
between worker threads, and silently diverges between the thread and
process backends.  This runs every registered kernel serially and
through the thread executor and checks that no module-level ``dict``,
``list`` or ``set`` in ``repro.kernels`` or ``repro.exec`` changed.
"""

from __future__ import annotations

import copy
import importlib
import pkgutil

import numpy as np
import pytest

import repro.exec
import repro.kernels
from repro.exec import ParallelExecutor
from repro.kernels import get_kernel
from repro.kernels.base import KERNELS
from repro.tensor import poisson_tensor

RANK = 6

#: prepare() parameters per registry name (2x2x2 grids, two rank strips).
KERNEL_PARAMS: dict[str, dict] = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {"mode_order": (0, 1, 2)},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
}


def _modules():
    out = []
    for pkg in (repro.kernels, repro.exec):
        out.append(pkg)
        for info in pkgutil.walk_packages(pkg.__path__, pkg.__name__ + "."):
            out.append(importlib.import_module(info.name))
    return out


def _snapshot() -> dict[tuple[str, str], object]:
    """Shallow copies of every module-level dict/list/set in scope."""
    return {
        (mod.__name__, name): copy.copy(value)
        for mod in _modules()
        for name, value in vars(mod).items()
        if type(value) in (dict, list, set)
    }


def _changed(before: dict, after: dict) -> list[str]:
    """Names whose container appeared, vanished, or whose entries were
    added, dropped or rebound (identity, not equality: a rebound array
    counts even when it holds the same numbers)."""
    out = []
    for key in sorted(set(before) | set(after)):
        a, b = before.get(key), after.get(key)
        if isinstance(a, dict) and isinstance(b, dict):
            same = a.keys() == b.keys() and all(a[k] is b[k] for k in a)
        elif isinstance(a, list) and isinstance(b, list):
            same = len(a) == len(b) and all(x is y for x, y in zip(a, b))
        else:
            same = a is not None and a == b
        if not same:
            out.append(".".join(key))
    return out


@pytest.fixture(scope="module")
def tensor():
    return poisson_tensor((15, 20, 18), 900, seed=3)


def test_every_registered_kernel_has_params():
    assert set(KERNEL_PARAMS) == set(KERNELS)


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
class TestModuleStateUntouched:
    def _factors(self, tensor, dtype):
        rng = np.random.default_rng(11)
        return [rng.standard_normal((n, RANK)).astype(dtype) for n in tensor.shape]

    def test_serial(self, tensor, name, dtype):
        factors = self._factors(tensor, dtype)
        kern = get_kernel(name)
        before = _snapshot()
        for mode in range(3):
            kern.execute(kern.prepare(tensor, mode, **KERNEL_PARAMS[name]), factors)
        assert _changed(before, _snapshot()) == []

    @pytest.mark.parallel_exec
    def test_thread_executor(self, tensor, name, dtype):
        factors = self._factors(tensor, dtype)
        with ParallelExecutor(n_threads=2) as ex:
            before = _snapshot()
            for mode in range(3):
                plan = ex.prepare(tensor, mode, name, **KERNEL_PARAMS[name])
                ex.execute(plan, factors)
            after = _snapshot()
        assert _changed(before, after) == []
