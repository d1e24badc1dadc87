#!/usr/bin/env python
"""Quickstart: sparse tensors, MTTKRP kernels, and a CP decomposition.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.cpd import cp_als
from repro.kernels import get_kernel, reference_mttkrp
from repro.tensor import CSFTensor, poisson_tensor
from repro.tensor.csf import splatt_order
from repro.tensor.stats import splatt_footprint
from repro.util import format_bytes

# ----------------------------------------------------------------------
# 1. Build a sparse count tensor (Poisson mixture, like the paper's
#    synthetic data sets).
# ----------------------------------------------------------------------
tensor = poisson_tensor((60, 80, 70), 20_000, seed=42)
print(f"tensor: {tensor}  density={tensor.density:.2e}")

# ----------------------------------------------------------------------
# 2. Compress into the SPLATT fiber format (Figure 1b): a CSF tree whose
#    levels are output rows, fibers and nonzeros.  Compare its storage
#    against coordinate format (Section III-C).
# ----------------------------------------------------------------------
splatt = CSFTensor.from_coo(tensor, splatt_order(0))
n_fibers, splatt_bytes = splatt_footprint(tensor, 0)
assert n_fibers == splatt.levels[1].n_nodes
print(
    f"SPLATT: {n_fibers} fibers "
    f"({splatt.nnz / n_fibers:.2f} nonzeros each), "
    f"storage {format_bytes(splatt_bytes)} vs "
    f"COO {format_bytes(tensor.memory_bytes())}"
)

# ----------------------------------------------------------------------
# 3. Run the mode-0 MTTKRP with several kernels and check they agree.
# ----------------------------------------------------------------------
rank = 16
rng = np.random.default_rng(0)
factors = [rng.standard_normal((n, rank)) for n in tensor.shape]

reference = reference_mttkrp(tensor, factors, 0)
for name, params in [
    ("coo", {}),
    ("splatt", {}),
    ("mb", {"block_counts": (1, 4, 2)}),
    ("rankb", {"n_rank_blocks": 2}),
    ("mb+rankb", {"block_counts": (1, 4, 2), "n_rank_blocks": 2}),
]:
    out = get_kernel(name).mttkrp(tensor, factors, 0, **params)
    err = np.max(np.abs(out - reference))
    print(f"kernel {name:9s}: max |error| vs dense reference = {err:.2e}")

# ----------------------------------------------------------------------
# 4. The application: a rank-8 CP decomposition via ALS.  The kernel's
#    plan is prepared once per mode and reused across all iterations.
# ----------------------------------------------------------------------
result = cp_als(tensor, rank=8, n_iters=25, tol=1e-5, kernel="splatt", seed=1)
print(
    f"CP-ALS: fit={result.final_fit:.4f} after {result.n_iters} iterations "
    f"(converged={result.converged})"
)
print(f"model: {result.model}")
