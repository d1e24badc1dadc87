"""Autotuning framework for blocking configurations.

The paper's conclusion: "a well designed autotuning framework would allow
the work presented here to be practical to real applications."  This
package is that framework:

* :mod:`repro.tune.signature` — a structural fingerprint of a tensor
  (shape, nonzeros, fiber statistics, popularity skew) that generalizes
  tuning decisions across tensors with the same structure;
* :mod:`repro.tune.cache` — a persistent (JSON) store of tuned
  configurations keyed by (signature, rank, machine);
* :mod:`repro.tune.tuner` — search strategies (the Section V-C greedy
  and an exhaustive search) over the model-backed cost surface, with
  a ``get_or_tune`` entry point that amortizes tuning across runs exactly
  the way CP-ALS amortizes plan preparation.
"""

from repro.tune.signature import TensorSignature, key_itemsize
from repro.tune.cache import CacheEntry, TuningCache
from repro.tune.tuner import TunedConfig, TunedThreads, Tuner

__all__ = [
    "CacheEntry",
    "TensorSignature",
    "TuningCache",
    "TunedConfig",
    "TunedThreads",
    "Tuner",
    "key_itemsize",
]
