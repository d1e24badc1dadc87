"""Structural tensor fingerprints for the tuning cache.

Two tensors with the same shape class, density, fiber statistics and
popularity skew behave the same under blocking (those are exactly the
inputs of the traffic model), so tuned configurations transfer between
them.  :class:`TensorSignature` quantizes those properties into a stable,
hashable key.

The fingerprint also carries the value itemsize: ``estimate_traffic`` is
itemsize-aware and float32 halves the working set, so a configuration
tuned for float64 must not be served to a float32 run (or vice versa).
Keys written before the itemsize field lack the ``_b<n>`` suffix;
:func:`key_itemsize` returns ``None`` for those, and the tuner treats the
matching cache entries as misses.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, asdict

import numpy as np

from repro.tensor.coo import COOTensor
from repro.util.validation import check_mode

_KEY_ITEMSIZE_RE = re.compile(r"_b(\d+)$")


def _log2_bucket(value: float) -> int:
    """Quantize to the nearest power-of-two exponent (0 for values < 1)."""
    if value < 1.0:
        return 0
    return int(round(math.log2(value)))


def key_itemsize(signature_key: str) -> "int | None":
    """Itemsize encoded in a signature key (``None`` for legacy keys
    written before the dtype field existed)."""
    match = _KEY_ITEMSIZE_RE.search(signature_key)
    return int(match.group(1)) if match else None


@dataclass(frozen=True)
class TensorSignature:
    """A quantized structural fingerprint of one (tensor, mode) pair."""

    #: Mode lengths, each bucketed to the nearest power of two.
    shape_buckets: tuple[int, ...]
    #: Nonzero count, bucketed.
    nnz_bucket: int
    #: Average fiber length (nnz/F), bucketed.
    fiber_len_bucket: int
    #: Inner-mode reuse (nnz / distinct inner rows), bucketed.
    reuse_bucket: int
    #: Fraction of inner-row accesses hitting the hottest 10% of rows,
    #: rounded to one decimal — the popularity-skew axis of the traffic
    #: model.
    skew_decile: float
    #: The MTTKRP output mode.
    mode: int
    #: Bytes per stored value (8 for float64, 4 for float32) — the traffic
    #: model's working sets scale with it, so tunings must not cross dtypes.
    itemsize: int = 8

    @classmethod
    def of(cls, tensor: COOTensor, mode: int) -> "TensorSignature":
        """Fingerprint a tensor for one MTTKRP output mode.

        Fiber statistics are computed directly from the COO coordinates
        (distinct ``(output, fiber)`` pairs under the SPLATT orientation)
        — no compressed tensor is built, so fingerprinting costs one
        sort of the pairs instead of a full SPLATT compression.  The numbers
        are identical: the ``splatt`` plan's tree for mode ``m`` counts
        the same pairs and the same inner-mode histogram.
        """
        mode = check_mode(mode, tensor.order)
        if tensor.order == 3:
            # SPLATT's default orientation for output mode m.
            inner_mode = (mode + 1) % 3
            fiber_mode = 3 - mode - inner_mode
            n_fibers = tensor.fiber_count(mode, fiber_mode)
            fiber_len = tensor.nnz / max(n_fibers, 1)
            inner = tensor.indices[:, inner_mode]
        else:
            fiber_len = 1.0
            inner = tensor.indices[:, (mode + 1) % tensor.order]

        counts = np.bincount(inner) if inner.size else np.array([0])
        counts = counts[counts > 0]
        distinct = max(counts.size, 1)
        reuse = tensor.nnz / distinct
        if counts.size:
            top = np.sort(counts)[::-1][: max(1, distinct // 10)]
            skew = float(top.sum() / max(counts.sum(), 1))
        else:
            skew = 0.0

        return cls(
            shape_buckets=tuple(_log2_bucket(s) for s in tensor.shape),
            nnz_bucket=_log2_bucket(tensor.nnz),
            fiber_len_bucket=_log2_bucket(fiber_len),
            reuse_bucket=_log2_bucket(reuse),
            skew_decile=round(skew, 1),
            mode=mode,
            itemsize=int(tensor.values.dtype.itemsize),
        )

    def key(self) -> str:
        """Stable string key for persistence (``_b<itemsize>`` suffix)."""
        return (
            "s" + "-".join(str(b) for b in self.shape_buckets)
            + f"_n{self.nnz_bucket}_f{self.fiber_len_bucket}"
            + f"_r{self.reuse_bucket}_k{self.skew_decile:g}_m{self.mode}"
            + f"_b{self.itemsize}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        d = asdict(self)
        d["shape_buckets"] = list(d["shape_buckets"])
        return d
