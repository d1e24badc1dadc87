"""Canonical polyadic decomposition (CP-ALS) — the application the paper
optimizes MTTKRP for.

"Typically, the mode-1 MTTKRP operation, along with the mode-2 and mode-3
MTTKRP, are performed 10-1000s of times in one tensor decomposition
calculation" (Section III-B): CP-ALS alternates least-squares updates of
each factor, and each update's bottleneck is one MTTKRP.  The driver here
is parameterized by any registered kernel, and prepares one plan per mode
up front — the amortization that pays for the blocking reorganization.
"""

from repro.cpd.ktensor import KruskalTensor
from repro.cpd.init import init_factors
from repro.cpd.core import ALSResult, check_init_factors
from repro.cpd.als import cp_als

__all__ = [
    "KruskalTensor",
    "init_factors",
    "ALSResult",
    "check_init_factors",
    "cp_als",
]
