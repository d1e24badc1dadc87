"""Blocking machinery: mode-block grids, tensor reorganization, rank strips,
and the Section V-C block-size selection heuristic.

* :class:`~repro.blocking.grid.BlockGrid` — an axis-aligned partition of the
  index space into blocks (uniform or explicit boundaries; the distributed
  medium-grained decomposition reuses the explicit form).
* :func:`~repro.blocking.partition.partition_coo` — reorganize a COO tensor
  so each block's nonzeros are contiguous, one CSF tree per block (the
  cheap rearrangement the paper contrasts with graph partitioning,
  Section V-A).
* :class:`~repro.blocking.rank.RankBlocking` — rank strips and register
  blocks (Section V-B).
* :func:`~repro.blocking.heuristic.select_blocking` — the greedy block-size
  search (Section V-C).
"""

from repro.blocking.grid import BlockGrid
from repro.blocking.partition import TensorBlock, partition_coo
from repro.blocking.rank import RankBlocking, REGISTER_BLOCK_COLS
from repro.blocking.heuristic import BlockingChoice, select_blocking

__all__ = [
    "BlockGrid",
    "TensorBlock",
    "partition_coo",
    "RankBlocking",
    "REGISTER_BLOCK_COLS",
    "BlockingChoice",
    "select_blocking",
]
