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
    "cp_als-csf-any-f32-t1": "a6e23f1e8cb2c52fd362c6c98fa412d712c6dbf6fc9810e55aaf9e2cfd377a12",
    "cp_als-csf-any-f32-t2": "a6e23f1e8cb2c52fd362c6c98fa412d712c6dbf6fc9810e55aaf9e2cfd377a12",
    "cp_als-csf-any-f64-t1": "1b29dd522d7226ad42c03eba27cc3e66efe2d176409f84b7b77419ad5e2c2b3f",
    "cp_als-csf-any-f64-t2": "1b29dd522d7226ad42c03eba27cc3e66efe2d176409f84b7b77419ad5e2c2b3f",
    "cp_als-csf-blocked-f32-t1": "93fe825f3683eb7999fa5160007cb6f65c9cead191bfebdf35020924c9dd1e8e",
    "cp_als-csf-blocked-f32-t2": "93fe825f3683eb7999fa5160007cb6f65c9cead191bfebdf35020924c9dd1e8e",
    "cp_als-csf-blocked-f64-t1": "7cfe2d25c799cc5d3e15761f60d6985ea9a9cab9516585ee954fcf3f41475f06",
    "cp_als-csf-blocked-f64-t2": "7cfe2d25c799cc5d3e15761f60d6985ea9a9cab9516585ee954fcf3f41475f06",
    "cp_als-csf-f32-t1": "75d8cb6307317bbcf9a2cc10774316c964b8b854636ca155b71f9dcd84c5fad4",
    "cp_als-csf-f32-t2": "75d8cb6307317bbcf9a2cc10774316c964b8b854636ca155b71f9dcd84c5fad4",
    "cp_als-csf-f64-t1": "2a65a1ff1efac1066e35066cd5c68f98ccb108a50f319bce75607d2d791dddcc",
    "cp_als-csf-f64-t2": "2a65a1ff1efac1066e35066cd5c68f98ccb108a50f319bce75607d2d791dddcc",
    "cp_als-mb+rankb-f32-t1": "c636646ebacefdbe4e0aff7de597953e498d76ec1eb6148425ad70184376ef46",
    "cp_als-mb+rankb-f32-t2": "c636646ebacefdbe4e0aff7de597953e498d76ec1eb6148425ad70184376ef46",
    "cp_als-mb+rankb-f64-t1": "bd86fd78e8c8570f99f3964392a2c1a885ae7fe0550db51c5f5d4f96830fd05b",
    "cp_als-mb+rankb-f64-t2": "bd86fd78e8c8570f99f3964392a2c1a885ae7fe0550db51c5f5d4f96830fd05b",
    "cp_als-mb-f32-t1": "c636646ebacefdbe4e0aff7de597953e498d76ec1eb6148425ad70184376ef46",
    "cp_als-mb-f32-t2": "c636646ebacefdbe4e0aff7de597953e498d76ec1eb6148425ad70184376ef46",
    "cp_als-mb-f64-t1": "bd86fd78e8c8570f99f3964392a2c1a885ae7fe0550db51c5f5d4f96830fd05b",
    "cp_als-mb-f64-t2": "bd86fd78e8c8570f99f3964392a2c1a885ae7fe0550db51c5f5d4f96830fd05b",
    "cp_als-rankb-f32-t1": "b5820ffe3afad247aca887b4184c681b61a2fa31f55309d063c6c842d0c53d07",
    "cp_als-rankb-f32-t2": "b5820ffe3afad247aca887b4184c681b61a2fa31f55309d063c6c842d0c53d07",
    "cp_als-rankb-f64-t1": "b40b1cea8da1c1f40389c6ec671c0512474f406ee8e994fab19a9ebdca20bbc2",
    "cp_als-rankb-f64-t2": "b40b1cea8da1c1f40389c6ec671c0512474f406ee8e994fab19a9ebdca20bbc2",
    "cp_als-splatt-f32-t1": "b5820ffe3afad247aca887b4184c681b61a2fa31f55309d063c6c842d0c53d07",
    "cp_als-splatt-f32-t2": "b5820ffe3afad247aca887b4184c681b61a2fa31f55309d063c6c842d0c53d07",
    "cp_als-splatt-f64-t1": "b40b1cea8da1c1f40389c6ec671c0512474f406ee8e994fab19a9ebdca20bbc2",
    "cp_als-splatt-f64-t2": "b40b1cea8da1c1f40389c6ec671c0512474f406ee8e994fab19a9ebdca20bbc2",
    "dimtree-f32": "d4041c51b607ae9dc01a10825b536686b3a8d355565b37273ee8fbeaab398886",
    "dimtree-f64": "e5d5dc760c4e239ee20cb588854b3dd352c19de7412a0303b3fa11d153f58b5a",
    "dist-process-f32": "b46507bf4949f6918d8d9c682cf14db40913376e7efa0375e995e863d030d1bf",
    "dist-process-f64": "ff1ae968156541612b52e89d4de48cdd555078905876d9dbf9327436e904c049",
    "dist-sim-f32": "b46507bf4949f6918d8d9c682cf14db40913376e7efa0375e995e863d030d1bf",
    "dist-sim-f64": "ff1ae968156541612b52e89d4de48cdd555078905876d9dbf9327436e904c049",
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
