"""Sparse tensor substrate: formats, generators, datasets, and IO.

Formats
-------
:class:`~repro.tensor.coo.COOTensor`
    N-mode coordinate format (Figure 1a of the paper); every nonzero stored
    with its full coordinate tuple.
:class:`~repro.tensor.csf.CSFTensor`
    The N-mode compressed sparse fiber format.  A 3-mode tree in the
    SPLATT orientation (:func:`~repro.tensor.csf.splatt_order`) is the
    SPLATT format of Figure 1b: nonzeros grouped into fibers with
    CSR-like two-level pointers.

Generation / data
-----------------
:mod:`repro.tensor.generate` builds the synthetic Poisson ("count") tensors
used by the paper, plus clustered and power-law generators that give the
"dense sub-structures" of the real datasets; :mod:`repro.tensor.datasets`
is the registry of scaled stand-ins for Table II.
"""

from repro.tensor.coo import COOTensor
from repro.tensor.csf import CSFTensor
from repro.tensor.dense import (
    dense_mttkrp,
    khatri_rao,
    matricize,
    tensor_norm,
)
from repro.tensor.generate import (
    poisson_tensor,
    uniform_random_tensor,
    clustered_tensor,
    power_law_tensor,
)
from repro.tensor.datasets import DATASETS, DatasetInfo, load_dataset
from repro.tensor.io import load_tns, save_tns, load_npz, save_npz
from repro.tensor.stats import ModeStats, TensorStats, analyze

__all__ = [
    "COOTensor",
    "CSFTensor",
    "dense_mttkrp",
    "khatri_rao",
    "matricize",
    "tensor_norm",
    "poisson_tensor",
    "uniform_random_tensor",
    "clustered_tensor",
    "power_law_tensor",
    "DATASETS",
    "DatasetInfo",
    "load_dataset",
    "load_tns",
    "save_tns",
    "load_npz",
    "save_npz",
    "ModeStats",
    "TensorStats",
    "analyze",
]
