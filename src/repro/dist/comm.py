"""Simulated MPI: collectives over per-rank NumPy buffers with cost
accounting.

The cluster executes in BSP style: distributed algorithms are written as
explicit phases over a list of per-rank states, and every collective takes
a list with one entry per participating rank.  Data movement is *real*
(the returned buffers are exactly what MPI would deliver, so the
distributed MTTKRP's numerics are testable), while a
:class:`CommLedger` records the alpha-beta time and byte volume of every
operation — the quantity Table III's scaling behaviour is made of.

Sub-communicators are plain rank lists; :meth:`SimCluster.split` mirrors
``MPI_Comm_split``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.dist.costmodel import NetworkModel, infiniband_edr
from repro.util.errors import DistributionError
from repro.util.validation import require


@dataclass
class CommRecord:
    """One collective in the ledger."""

    op: str
    ranks: tuple[int, ...]
    bytes_moved: float
    time: float


@dataclass
class CommLedger:
    """Accumulated communication accounting for one simulated run.

    ``rank_time`` tracks each rank's cumulative communication time;
    collectives synchronize their participants (everyone leaves at the
    group's latest arrival plus the collective's cost).
    """

    n_ranks: int
    records: list[CommRecord] = field(default_factory=list)
    rank_time: "np.ndarray | None" = None

    def __post_init__(self) -> None:
        if self.rank_time is None:
            self.rank_time = np.zeros(self.n_ranks)

    def charge(self, op: str, ranks: Sequence[int], nbytes: float, time: float) -> None:
        """Record a collective over ``ranks`` costing ``time`` seconds."""
        ranks = tuple(int(r) for r in ranks)
        self.records.append(CommRecord(op, ranks, nbytes, time))
        idx = list(ranks)
        start = float(self.rank_time[idx].max()) if idx else 0.0
        self.rank_time[idx] = start + time

    def advance(self, rank: int, time: float) -> None:
        """Charge local (compute) time to one rank."""
        self.rank_time[rank] += time

    @property
    def total_bytes(self) -> float:
        """Bytes moved across all recorded operations."""
        return sum(r.bytes_moved for r in self.records)

    @property
    def comm_time(self) -> float:
        """Total time of all recorded collectives (summed serially)."""
        return sum(r.time for r in self.records)

    @property
    def makespan(self) -> float:
        """Completion time of the slowest rank."""
        return float(self.rank_time.max()) if self.n_ranks else 0.0


class SimCluster:
    """A simulated cluster of ``n_ranks`` MPI ranks."""

    def __init__(
        self,
        n_ranks: int,
        network: "NetworkModel | None" = None,
    ) -> None:
        require(n_ranks >= 1, "need at least one rank")
        self.n_ranks = int(n_ranks)
        self.network = network or infiniband_edr()
        self.ledger = CommLedger(self.n_ranks)

    # ------------------------------------------------------------------
    def _check_group(self, group: Sequence[int], n_bufs: int) -> tuple[int, ...]:
        group = tuple(int(r) for r in group)
        if len(set(group)) != len(group):
            raise DistributionError(f"duplicate ranks in group {group}")
        if any(not 0 <= r < self.n_ranks for r in group):
            raise DistributionError(f"rank out of range in group {group}")
        if n_bufs != len(group):
            raise DistributionError(
                f"{n_bufs} buffers supplied for a {len(group)}-rank group"
            )
        return group

    # ------------------------------------------------------------------
    def allgather(
        self, group: Sequence[int], buffers: "list[np.ndarray]"
    ) -> "list[list[np.ndarray]]":
        """Every rank in ``group`` receives every rank's buffer (in group
        order).  Returns one list of buffers per participating rank."""
        group = self._check_group(group, len(buffers))
        per_rank = float(np.mean([b.nbytes for b in buffers])) if buffers else 0.0
        time = self.network.allgather(len(group), per_rank)
        self.ledger.charge(
            "allgather", group, (len(group) - 1) * per_rank * len(group), time
        )
        return [list(buffers) for _ in group]

    def reduce_scatter(
        self, group: Sequence[int], buffers: "list[np.ndarray]"
    ) -> "list[np.ndarray]":
        """Element-wise sum of the (identically shaped) per-rank buffers,
        scattered: rank ``g`` of the group gets the ``g``-th equal chunk
        along axis 0 of the sum."""
        group = self._check_group(group, len(buffers))
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise DistributionError(f"reduce_scatter buffers disagree: {shapes}")
        total = buffers[0].copy()
        for b in buffers[1:]:
            total += b
        p = len(group)
        bounds = (total.shape[0] * np.arange(p + 1)) // p
        chunks = [
            np.ascontiguousarray(total[bounds[g] : bounds[g + 1]]) for g in range(p)
        ]
        time = self.network.reduce_scatter(p, float(total.nbytes))
        self.ledger.charge(
            "reduce_scatter", group, (p - 1) / p * total.nbytes * p, time
        )
        return chunks

    def allreduce(
        self, group: Sequence[int], buffers: "list[np.ndarray]"
    ) -> "list[np.ndarray]":
        """Element-wise sum delivered to every participating rank."""
        group = self._check_group(group, len(buffers))
        shapes = {b.shape for b in buffers}
        if len(shapes) != 1:
            raise DistributionError(f"allreduce buffers disagree: {shapes}")
        total = buffers[0].copy()
        for b in buffers[1:]:
            total += b
        time = self.network.allreduce(len(group), float(total.nbytes))
        self.ledger.charge(
            "allreduce", group, 2.0 * (len(group) - 1) * total.nbytes, time
        )
        return [total.copy() for _ in group]

    def barrier(self, group: Sequence[int]) -> None:
        """Synchronize a group (latency only)."""
        group = self._check_group(group, len(group))
        self.ledger.charge("barrier", group, 0.0, self.network.barrier(len(group)))

    # ------------------------------------------------------------------
    @staticmethod
    def split(ranks: Sequence[int], colors: Sequence[int]) -> dict[int, list[int]]:
        """MPI_Comm_split: group ranks by color, preserving rank order."""
        if len(ranks) != len(colors):
            raise DistributionError("one color per rank required")
        groups: dict[int, list[int]] = {}
        for r, c in zip(ranks, colors):
            groups.setdefault(int(c), []).append(int(r))
        return groups
