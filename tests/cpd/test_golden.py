"""Golden pin of the CP-ALS trajectories.

Every case runs a fixed-seed decomposition and hashes its final factors,
weights and fit history; the sha256 must match the committed digest
byte-for-byte.  Any change to the update step, the kernels, the
executors or the distributed drivers that moves a single bit of the
trajectory fails here.

The digests depend on the floating-point results of the local BLAS
(``pinv`` and the small matmuls), so they pin one platform.  To
regenerate after an intended numerical change::

    PYTHONPATH=src python tests/cpd/test_golden.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cpd import cp_als
from repro.tensor import poisson_tensor
from repro.tensor.coo import COOTensor

KERNEL_PARAMS: dict[str, dict[str, object]] = {
    "coo": {},
    "splatt": {},
    "csf": {},
    "csf-any": {},
    "mb": {"block_counts": (2, 2, 2)},
    "rankb": {"n_rank_blocks": 2},
    "mb+rankb": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
    "csf-blocked": {"block_counts": (2, 2, 2), "n_rank_blocks": 2},
}

DTYPES = {"f32": np.float32, "f64": np.float64}

RANK = 6
N_ITERS = 4


def _tensor(dtype) -> COOTensor:
    t = poisson_tensor((14, 19, 16), 1200, seed=11)
    return COOTensor(t.shape, t.indices, t.values.astype(dtype))


def _digest(result) -> str:
    h = hashlib.sha256()
    for f in result.model.factors:
        h.update(np.ascontiguousarray(f).tobytes())
    h.update(np.ascontiguousarray(result.model.weights).tobytes())
    h.update(np.asarray(result.fits, dtype=np.float64).tobytes())
    return h.hexdigest()


def _run_cp_als(kernel: str, dtype: str, n_threads: int):
    return cp_als(
        _tensor(DTYPES[dtype]), RANK, n_iters=N_ITERS, tol=0.0, seed=0,
        kernel=kernel, kernel_params=KERNEL_PARAMS[kernel],
        n_threads=n_threads,
    )


def _run_dist(dtype: str, backend: str):
    from repro.dist import ProcessGrid, distributed_cp_als
    from repro.machine import power8_socket

    return distributed_cp_als(
        _tensor(DTYPES[dtype]), RANK, ProcessGrid((2, 1, 1)),
        power8_socket(), n_iters=N_ITERS, tol=0.0, seed=1, backend=backend,
    )


def _cases() -> "dict[str, tuple]":
    cases: dict[str, tuple] = {}
    for kernel in KERNEL_PARAMS:
        for dtype in DTYPES:
            for n_threads in (1, 2):
                cases[f"cp_als-{kernel}-{dtype}-t{n_threads}"] = (
                    _run_cp_als, kernel, dtype, n_threads,
                )
    for dtype in DTYPES:
        for backend in ("sim", "process"):
            cases[f"dist-{backend}-{dtype}"] = (_run_dist, dtype, backend)
    return cases


CASES = _cases()

GOLDEN: dict[str, str] = {
    "cp_als-coo-f32-t1": "8bf08824dce6f84d0da5a1c6b03b3389c251606c3d46877391b2b1df6516842c",
    "cp_als-coo-f32-t2": "8bf08824dce6f84d0da5a1c6b03b3389c251606c3d46877391b2b1df6516842c",
    "cp_als-coo-f64-t1": "3dbd651cb86017ab32a7296ee42fedfe971c48c517394d500904ddc92ca98a33",
    "cp_als-coo-f64-t2": "3dbd651cb86017ab32a7296ee42fedfe971c48c517394d500904ddc92ca98a33",
    "cp_als-csf-any-f32-t1": "b17ec9048a57de3f2cd524c91120973767a2656bf1127021a7aba339b602e257",
    "cp_als-csf-any-f32-t2": "b17ec9048a57de3f2cd524c91120973767a2656bf1127021a7aba339b602e257",
    "cp_als-csf-any-f64-t1": "679632ee3b0a2fdaf25d602c72b48d77ae1bafa9712f1f9a009b1b0fdbcd323d",
    "cp_als-csf-any-f64-t2": "679632ee3b0a2fdaf25d602c72b48d77ae1bafa9712f1f9a009b1b0fdbcd323d",
    "cp_als-csf-blocked-f32-t1": "aac40cb1b2ee6b765ce4f9602698748242d0c28d56a6f75d891a9a905316d28b",
    "cp_als-csf-blocked-f32-t2": "aac40cb1b2ee6b765ce4f9602698748242d0c28d56a6f75d891a9a905316d28b",
    "cp_als-csf-blocked-f64-t1": "cd170bc58661fe5b04e7806d03f999ff3a204526b1610d1efac90a6805e69fa0",
    "cp_als-csf-blocked-f64-t2": "cd170bc58661fe5b04e7806d03f999ff3a204526b1610d1efac90a6805e69fa0",
    "cp_als-csf-f32-t1": "7a17ab0fd1e5ac17197ec73598d50f7cbedd770447aef34bbc5c3adf9b4429f3",
    "cp_als-csf-f32-t2": "7a17ab0fd1e5ac17197ec73598d50f7cbedd770447aef34bbc5c3adf9b4429f3",
    "cp_als-csf-f64-t1": "511fb517c39142000df95e5265b0d5da3cc82c1cb7a414d829ef8f743dbb507d",
    "cp_als-csf-f64-t2": "511fb517c39142000df95e5265b0d5da3cc82c1cb7a414d829ef8f743dbb507d",
    "cp_als-mb+rankb-f32-t1": "a2119560100a7bf767530bf193a9926530f53edc736eee6b15b594fc9d211819",
    "cp_als-mb+rankb-f32-t2": "a2119560100a7bf767530bf193a9926530f53edc736eee6b15b594fc9d211819",
    "cp_als-mb+rankb-f64-t1": "9bab9777c164c2cafde4e410d935e2c38e9f7f9cc559137e5add66b4c9fad5a5",
    "cp_als-mb+rankb-f64-t2": "9bab9777c164c2cafde4e410d935e2c38e9f7f9cc559137e5add66b4c9fad5a5",
    "cp_als-mb-f32-t1": "a2119560100a7bf767530bf193a9926530f53edc736eee6b15b594fc9d211819",
    "cp_als-mb-f32-t2": "a2119560100a7bf767530bf193a9926530f53edc736eee6b15b594fc9d211819",
    "cp_als-mb-f64-t1": "9bab9777c164c2cafde4e410d935e2c38e9f7f9cc559137e5add66b4c9fad5a5",
    "cp_als-mb-f64-t2": "9bab9777c164c2cafde4e410d935e2c38e9f7f9cc559137e5add66b4c9fad5a5",
    "cp_als-rankb-f32-t1": "5aeeafdbe000577e84feb80a9f0977f95dcfb58b4580776e845d55874b132be8",
    "cp_als-rankb-f32-t2": "5aeeafdbe000577e84feb80a9f0977f95dcfb58b4580776e845d55874b132be8",
    "cp_als-rankb-f64-t1": "51a2ac2f93088d85f4a65ef29462e7d18ef7bfbf8af047635d8fbcb35cec3aac",
    "cp_als-rankb-f64-t2": "51a2ac2f93088d85f4a65ef29462e7d18ef7bfbf8af047635d8fbcb35cec3aac",
    "cp_als-splatt-f32-t1": "5aeeafdbe000577e84feb80a9f0977f95dcfb58b4580776e845d55874b132be8",
    "cp_als-splatt-f32-t2": "5aeeafdbe000577e84feb80a9f0977f95dcfb58b4580776e845d55874b132be8",
    "cp_als-splatt-f64-t1": "51a2ac2f93088d85f4a65ef29462e7d18ef7bfbf8af047635d8fbcb35cec3aac",
    "cp_als-splatt-f64-t2": "51a2ac2f93088d85f4a65ef29462e7d18ef7bfbf8af047635d8fbcb35cec3aac",
    "dist-process-f32": "c70c6e0b63f8999e09ac302fca753e0b952c5682ab9fea2a31fe88ede6a4f499",
    "dist-process-f64": "abfd1738da430a35d05acc0011da0823ce4703c475579ed4e6db1c33ccd08f6f",
    "dist-sim-f32": "c70c6e0b63f8999e09ac302fca753e0b952c5682ab9fea2a31fe88ede6a4f499",
    "dist-sim-f64": "abfd1738da430a35d05acc0011da0823ce4703c475579ed4e6db1c33ccd08f6f",
}


def _param(name: str):
    parallel = name.endswith("-t2") or name.startswith("dist-process")
    marks = [pytest.mark.parallel_exec] if parallel else []
    return pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("case", [_param(name) for name in sorted(CASES)])
def test_trajectory_matches_golden(case):
    fn, *args = CASES[case]
    assert _digest(fn(*args)) == GOLDEN[case]


if __name__ == "__main__":
    print("GOLDEN: dict[str, str] = {")
    for name in sorted(CASES):
        fn, *args = CASES[name]
        print(f'    "{name}": "{_digest(fn(*args))}",')
    print("}")
