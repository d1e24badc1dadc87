"""Shared-memory parallel execution of the MTTKRP kernels.

Where :mod:`repro.perf.parallel` *predicts* the makespan of a
slice-parallel MTTKRP, this package *runs* one: the same nnz-balanced
output-slice partition, the same race-detector vetting (overlap raises
:class:`~repro.util.errors.ScheduleError`), executed by a thread pool
(or inline, by the ``serial`` backend) into disjoint row ranges of one
shared output buffer.  Per-worker wall-clock is recorded so measured
imbalance can be compared against the model's estimate
(``docs/parallel-execution.md``).
"""

from repro.exec.executor import (
    BACKENDS,
    ExecutionReport,
    ParallelExecutor,
    ParallelPlan,
    ThreadTask,
    parallel_mttkrp,
)
from repro.exec.pool import CancellationToken, WorkerPool

__all__ = [
    "BACKENDS",
    "CancellationToken",
    "ExecutionReport",
    "ParallelExecutor",
    "ParallelPlan",
    "ThreadTask",
    "WorkerPool",
    "parallel_mttkrp",
]
