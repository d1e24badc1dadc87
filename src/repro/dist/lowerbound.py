"""MTTKRP communication lower bounds (Ballard, Knight & Rouse,
arXiv:1708.07401).

Their Theorem 4.1-style argument bounds, for any parallel MTTKRP over
``P`` processors where each holds ``nnz/P`` nonzeros, the words each
processor must communicate: accessing a nonzero (i, j, k) requires rows
``A[i]``, ``B[j]``, ``C[k]`` (``3 R`` words of factor data per distinct
index triple), and by the AM-GM / Loomis–Whitney projection bound a set
of ``nnz/P`` nonzeros touches at least ``3 (nnz/P)^{1/3}`` distinct
slices across the three modes combined.  A processor can own at most
``(I + J + K) R / P`` factor words locally (balanced factor storage),
so everything beyond that must move::

    words_per_proc >= max(0, 3 R (nnz/P)^{1/3} - (I + J + K) R / P)

This is the memory-independent (bandwidth) bound specialized to the
balanced medium-grained setting — the honest caveat is that the paper
proves tighter constants under specific memory regimes; we use the
simple projection form, which is a true lower bound, as a *regression
floor*: the benchmark reports ``attained = bound / measured`` per
decomposition, and ``bench compare`` gates on that fraction not
collapsing (a collective rewrite that suddenly moves 10x more data
shows up as the fraction cratering).
"""

from __future__ import annotations

from typing import Sequence

from repro.util.errors import DistributionError

__all__ = ["mttkrp_comm_lower_bound", "attained_fraction"]


def mttkrp_comm_lower_bound(
    shape: Sequence[int],
    nnz: int,
    rank: int,
    n_ranks: int,
    itemsize: int,
) -> float:
    """Total bytes every ``n_ranks``-way MTTKRP must move, summed over
    processors (0 when one rank holds everything)."""
    if n_ranks < 1:
        raise DistributionError(f"need at least one rank, got {n_ranks}")
    if n_ranks == 1:
        return 0.0
    dims = [int(s) for s in shape]
    words_needed = 3.0 * rank * float(nnz / n_ranks) ** (1.0 / 3.0)
    words_owned = sum(dims) * rank / n_ranks
    per_proc = max(0.0, words_needed - words_owned)
    return per_proc * n_ranks * itemsize


def attained_fraction(
    shape: Sequence[int],
    nnz: int,
    rank: int,
    n_ranks: int,
    itemsize: int,
    measured_bytes: float,
) -> float:
    """``bound / measured`` in ``[0, 1]``: 1.0 means the decomposition
    moves exactly the provable minimum; small values mean communication
    overhead dominates.  Defined as 1.0 when the bound is zero and
    nothing needed to move."""
    bound = mttkrp_comm_lower_bound(shape, nnz, rank, n_ranks, itemsize)
    if measured_bytes <= 0.0:
        return 1.0 if bound == 0.0 else 0.0
    frac = bound / measured_bytes
    if frac > 1.0 + 1e-9:
        raise DistributionError(
            f"measured {measured_bytes:.0f} B beat the lower bound "
            f"{bound:.0f} B — the bound computation or byte accounting is wrong"
        )
    return min(frac, 1.0)
