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

from repro.cpd import cp_als, cp_als_dimtree
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


def _run_dimtree(dtype: str):
    return cp_als_dimtree(
        _tensor(DTYPES[dtype]), RANK, n_iters=N_ITERS, tol=0.0, seed=0
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
        cases[f"dimtree-{dtype}"] = (_run_dimtree, dtype)
        for backend in ("sim", "process"):
            cases[f"dist-{backend}-{dtype}"] = (_run_dist, dtype, backend)
    return cases


CASES = _cases()

GOLDEN: dict[str, str] = {
    "cp_als-coo-f32-t1": "d79d9adcdce65bc0950f7cfd7ab4ab71128328faa0d1c7f3418f2c84f9d820c2",
    "cp_als-coo-f32-t2": "d79d9adcdce65bc0950f7cfd7ab4ab71128328faa0d1c7f3418f2c84f9d820c2",
    "cp_als-coo-f64-t1": "7b838efe371ac814635bb15fac6abde8fb86493dde04be79efbf61cea15e74a0",
    "cp_als-coo-f64-t2": "7b838efe371ac814635bb15fac6abde8fb86493dde04be79efbf61cea15e74a0",
    "cp_als-csf-any-f32-t1": "5f983870d3dc3e47155cb1dc521444c5e14e4ead20b6c3380ded31353e2fd478",
    "cp_als-csf-any-f32-t2": "5f983870d3dc3e47155cb1dc521444c5e14e4ead20b6c3380ded31353e2fd478",
    "cp_als-csf-any-f64-t1": "b0c7d58c46c478616698d7f665441d9e70913d26c4fe0b91b5c717f6641a58bf",
    "cp_als-csf-any-f64-t2": "b0c7d58c46c478616698d7f665441d9e70913d26c4fe0b91b5c717f6641a58bf",
    "cp_als-csf-blocked-f32-t1": "abe0878b66dae8037c739269ee6f8a78d7562afd6006f317a863954bc8dc70dc",
    "cp_als-csf-blocked-f32-t2": "abe0878b66dae8037c739269ee6f8a78d7562afd6006f317a863954bc8dc70dc",
    "cp_als-csf-blocked-f64-t1": "ac88a6b5f20d65c893552d38e627a266be8c6271f1a7d83200c3d7f66432461a",
    "cp_als-csf-blocked-f64-t2": "ac88a6b5f20d65c893552d38e627a266be8c6271f1a7d83200c3d7f66432461a",
    "cp_als-csf-f32-t1": "194fba23ed51b1302a3689de11cbef82ede04eb6fa3f4e6c0894f03fbce68d75",
    "cp_als-csf-f32-t2": "194fba23ed51b1302a3689de11cbef82ede04eb6fa3f4e6c0894f03fbce68d75",
    "cp_als-csf-f64-t1": "3bf4a0a05c622d069e1a0dc901299bdd716064670dc3dff1bdc527711cc2f5be",
    "cp_als-csf-f64-t2": "3bf4a0a05c622d069e1a0dc901299bdd716064670dc3dff1bdc527711cc2f5be",
    "cp_als-mb+rankb-f32-t1": "9c32abaeaacff206cb678b314e85957b2e0865c0833b238626dae3541ef7673a",
    "cp_als-mb+rankb-f32-t2": "9c32abaeaacff206cb678b314e85957b2e0865c0833b238626dae3541ef7673a",
    "cp_als-mb+rankb-f64-t1": "407ac08390c6b8e37d08310694d2cf1c8fd57b40937da691b4be3910fcc4a5aa",
    "cp_als-mb+rankb-f64-t2": "407ac08390c6b8e37d08310694d2cf1c8fd57b40937da691b4be3910fcc4a5aa",
    "cp_als-mb-f32-t1": "9c32abaeaacff206cb678b314e85957b2e0865c0833b238626dae3541ef7673a",
    "cp_als-mb-f32-t2": "9c32abaeaacff206cb678b314e85957b2e0865c0833b238626dae3541ef7673a",
    "cp_als-mb-f64-t1": "407ac08390c6b8e37d08310694d2cf1c8fd57b40937da691b4be3910fcc4a5aa",
    "cp_als-mb-f64-t2": "407ac08390c6b8e37d08310694d2cf1c8fd57b40937da691b4be3910fcc4a5aa",
    "cp_als-rankb-f32-t1": "f03d69a3b1b66508bc1ae9b96f8bdc7a68046f6cebbb7b81b212602885ccc331",
    "cp_als-rankb-f32-t2": "f03d69a3b1b66508bc1ae9b96f8bdc7a68046f6cebbb7b81b212602885ccc331",
    "cp_als-rankb-f64-t1": "b56199e3866cbe5f84c675f119af397a9ec8e86fafd9e2d832b6e4fa0aa66903",
    "cp_als-rankb-f64-t2": "b56199e3866cbe5f84c675f119af397a9ec8e86fafd9e2d832b6e4fa0aa66903",
    "cp_als-splatt-f32-t1": "f03d69a3b1b66508bc1ae9b96f8bdc7a68046f6cebbb7b81b212602885ccc331",
    "cp_als-splatt-f32-t2": "f03d69a3b1b66508bc1ae9b96f8bdc7a68046f6cebbb7b81b212602885ccc331",
    "cp_als-splatt-f64-t1": "b56199e3866cbe5f84c675f119af397a9ec8e86fafd9e2d832b6e4fa0aa66903",
    "cp_als-splatt-f64-t2": "b56199e3866cbe5f84c675f119af397a9ec8e86fafd9e2d832b6e4fa0aa66903",
    "dimtree-f32": "d4041c51b607ae9dc01a10825b536686b3a8d355565b37273ee8fbeaab398886",
    "dimtree-f64": "e5d5dc760c4e239ee20cb588854b3dd352c19de7412a0303b3fa11d153f58b5a",
    "dist-process-f32": "89d071e14d38fbf557cf58d2d663ae971d842985cba9b22bc57f9d04c0487887",
    "dist-process-f64": "634c5a52d301d8cfb76364262e0044f3e1ed0afd9de608896b9a90808f3d809b",
    "dist-sim-f32": "89d071e14d38fbf557cf58d2d663ae971d842985cba9b22bc57f9d04c0487887",
    "dist-sim-f64": "634c5a52d301d8cfb76364262e0044f3e1ed0afd9de608896b9a90808f3d809b",
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
