"""repro — reproduction of "Blocking Optimization Techniques for Sparse
Tensor Computation" (Choi, Liu, Smith, Simon — IPDPS 2018).

Subpackages
-----------
:mod:`repro.tensor`    sparse formats (COO, CSF), generators, data sets
:mod:`repro.kernels`   MTTKRP kernels: coo, splatt (Alg. 1), mb,
                       rankb (Alg. 2), mb+rankb, csf, csf-blocked, csf-any
:mod:`repro.blocking`  block grids, rank strips, the Section V-C heuristic
:mod:`repro.machine`   POWER8 machine model, cache simulator, traffic model
:mod:`repro.perf`      roofline (Eq. 1-3), time model, pressure-point analysis
:mod:`repro.dist`      simulated distributed substrate (3D/4D grids, Table III)
:mod:`repro.cpd`       CP-ALS, the application context
:mod:`repro.bench`     experiment functions for every paper table/figure

The most common entry points are re-exported here.
"""

from repro.tensor import COOTensor, CSFTensor, load_dataset
from repro.kernels import get_kernel
from repro.blocking import BlockGrid, RankBlocking, select_blocking
from repro.machine import power8, power8_socket
from repro.perf import predict_time, run_ppa
from repro.cpd import cp_als

__version__ = "1.0.0"

__all__ = [
    "COOTensor",
    "CSFTensor",
    "load_dataset",
    "get_kernel",
    "BlockGrid",
    "RankBlocking",
    "select_blocking",
    "power8",
    "power8_socket",
    "predict_time",
    "run_ppa",
    "cp_als",
    "__version__",
]
