"""MTTKRP kernels: reference, COO, the CSF tree kernel (Alg. 1, its
blocked presets and their N-mode extension), and any-mode CSF.

Every kernel follows a two-phase API (mirroring how real tensor libraries
amortize setup over the 10-1000s of CPD iterations, Section III-B):

1. :meth:`~repro.kernels.base.Kernel.prepare` compresses/reorganizes the
   COO tensor once into a :class:`~repro.kernels.base.Plan`;
2. :meth:`~repro.kernels.base.Kernel.execute` runs the MTTKRP for one set
   of factor matrices: it checks the factors, allocates the output and
   records the tracing hook, then calls the kernel's own
   :meth:`~repro.kernels.base.Kernel.run`.

Plans expose :meth:`~repro.kernels.base.Plan.block_stats`, the structural
summary (nonzeros, fibers, distinct factor rows touched per block) that the
machine model (:mod:`repro.machine`) turns into memory-traffic and
execution-time estimates.
"""

from repro.kernels.base import (
    Kernel,
    Plan,
    BlockStats,
    get_kernel,
    KERNELS,
    check_factors,
    factor_dtype,
)
from repro.kernels.reference import reference_mttkrp
from repro.kernels.coo_mttkrp import COOKernel
from repro.kernels.csf_mttkrp import CSFKernel
from repro.kernels.csf_any import CSFAnyKernel
from repro.kernels.counters import OperationCounts, splatt_op_counts, coo_op_counts

__all__ = [
    "Kernel",
    "Plan",
    "BlockStats",
    "get_kernel",
    "KERNELS",
    "check_factors",
    "factor_dtype",
    "reference_mttkrp",
    "COOKernel",
    "CSFKernel",
    "CSFAnyKernel",
    "OperationCounts",
    "splatt_op_counts",
    "coo_op_counts",
]
