"""Execution-time model for MTTKRP plans.

The model is **additive** over resources::

    T = T_stream + T_B + T_C + T_A(read) + T_A(write) + T_loadunits + T_flops

Why additive and not the classic ``max`` roofline?  The paper's Table I
is direct evidence: on a single POWER8 core, removing the ``B`` traffic
saves 37%, limiting ``B`` to L1 saves 30%, removing accumulator loads
saves 19%, and removing ``C`` saves 7% — the savings *stack* (they sum to
roughly the whole runtime along with streaming/compute), which is the
signature of serialized, latency-exposed costs rather than perfectly
overlapped ones.  An additive decomposition reproduces exactly that
structure; a ``max`` model would predict zero benefit from relieving any
non-bottleneck resource, contradicting Table I.

Every term comes from the machine package:

* memory terms — :func:`repro.machine.traffic.estimate_traffic` bytes over
  the machine's read/write bandwidths (factor-row gathers run at reduced
  efficiency when strips are not re-stacked, Section V-B);
* load-unit term — :func:`repro.machine.loadunits.estimate_loads` micro-ops
  over the load/store issue rate;
* compute term — Equation 2 flops over peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.blocking.rank import RankBlocking
from repro.kernels.base import Plan, get_kernel
from repro.machine.loadunits import LoadEstimate, estimate_loads
from repro.machine.spec import MachineSpec
from repro.machine.traffic import TrafficEstimate, estimate_traffic
from repro.tensor.coo import COOTensor
from repro.util.validation import check_rank

if TYPE_CHECKING:
    from repro.kernels.csf_mttkrp import CSFPlan


@dataclass(frozen=True)
class TimeBreakdown:
    """Predicted execution time of one MTTKRP, split by resource."""

    #: Streaming the tensor structures from memory.
    stream_time: float
    #: Miss traffic to the inner factor ``B``.
    b_time: float
    #: Miss traffic to the fiber factor ``C``.
    c_time: float
    #: Miss traffic to the output factor ``A`` (reads).
    a_read_time: float
    #: Write-back traffic of ``A``.
    a_write_time: float
    #: Load/store-unit occupancy.
    load_time: float
    #: Floating-point work.
    flop_time: float
    #: The underlying traffic estimate (for reporting).
    traffic: TrafficEstimate = field(repr=False, compare=False, default=None)
    #: The underlying load estimate (for reporting).
    loads: LoadEstimate = field(repr=False, compare=False, default=None)

    @property
    def total(self) -> float:
        """Total predicted time in seconds (additive model)."""
        return (
            self.stream_time
            + self.b_time
            + self.c_time
            + self.a_read_time
            + self.a_write_time
            + self.load_time
            + self.flop_time
        )

    @property
    def memory_time(self) -> float:
        """All memory-traffic terms."""
        return (
            self.stream_time
            + self.b_time
            + self.c_time
            + self.a_read_time
            + self.a_write_time
        )

    def components(self) -> dict[str, float]:
        """Named time components (seconds)."""
        return {
            "stream": self.stream_time,
            "B": self.b_time,
            "C": self.c_time,
            "A_read": self.a_read_time,
            "A_write": self.a_write_time,
            "load_units": self.load_time,
            "flops": self.flop_time,
        }


def mttkrp_flops(plan: Plan, rank: int) -> float:
    """Equation 2: ``W = 2R(nnz + F)`` over the plan's phases.

    Blocking along the inner mode splits fibers, so a blocked plan's
    fiber count (and hence flops) can exceed the unblocked kernel's —
    the model charges for that honestly.
    """
    stats = plan.block_stats()
    nnz = sum(b.nnz for b in stats)
    fibers = sum(b.n_fibers for b in stats)
    return 2.0 * rank * (nnz + fibers)


def predict_time(
    plan: Plan,
    rank: int,
    machine: MachineSpec,
    *,
    flops: "float | None" = None,
) -> TimeBreakdown:
    """Predict the execution time of one MTTKRP run of ``plan``."""
    rank = check_rank(rank)
    traffic = estimate_traffic(plan, rank, machine)
    loads = estimate_loads(plan, rank, machine)
    if flops is None:
        flops = mttkrp_flops(plan, rank)

    # Non-restacked rank strips gather strided rows, defeating the
    # hardware prefetcher (Section V-B's re-stacking rationale).
    rank_blocking = getattr(plan, "rank_blocking", None)
    gather_eff = 1.0
    if (
        rank_blocking is not None
        and not rank_blocking.is_identity
        and not rank_blocking.restack
    ):
        gather_eff = machine.strided_stream_efficiency

    read_bw = machine.read_bandwidth
    l3_bw = machine.l3_bandwidth

    def factor_time(s) -> float:
        return (s.read_bytes / read_bw + s.l3_read_bytes / l3_bw) / gather_eff

    return TimeBreakdown(
        stream_time=traffic.stream_read_bytes / read_bw,
        b_time=factor_time(traffic.b),
        c_time=factor_time(traffic.c),
        a_read_time=factor_time(traffic.a),
        a_write_time=traffic.a.write_bytes / machine.write_bandwidth,
        load_time=loads.total_ops / machine.loadstore_rate,
        flop_time=flops / machine.peak_flops,
        traffic=traffic,
        loads=loads,
    )


def _preset(
    block_counts: "Sequence[int] | None", rank_blocking: "RankBlocking | None"
) -> str:
    """The SPLATT-family registry preset that takes exactly these knobs."""
    return ("splatt", "mb", "rankb", "mb+rankb")[
        (block_counts is not None) + 2 * (rank_blocking is not None)
    ]


def prepare_plan(
    tensor: COOTensor,
    mode: int,
    block_counts: "Sequence[int] | None" = None,
    rank_blocking: "RankBlocking | None" = None,
) -> Plan:
    """Build the SPLATT-family plan for a blocking configuration.

    ``(None, None)`` gives the baseline SPLATT plan; block counts alone
    give MB; rank blocking alone gives RankB; both give MB+RankB.
    """
    params: dict[str, object] = {}
    if block_counts is not None:
        params["block_counts"] = tuple(block_counts)
    if rank_blocking is not None:
        params["rank_blocking"] = rank_blocking
    return get_kernel(_preset(block_counts, rank_blocking)).prepare(
        tensor, mode, **params
    )


def predict_time_for_config(
    tensor: COOTensor,
    mode: int,
    rank: int,
    machine: MachineSpec,
    block_counts: "Sequence[int] | None" = None,
    rank_blocking: "RankBlocking | None" = None,
) -> TimeBreakdown:
    """Prepare-and-predict convenience for one blocking configuration."""
    plan = prepare_plan(tensor, mode, block_counts, rank_blocking)
    return predict_time(plan, rank, machine)


class ConfigPlanner:
    """Plan cache for sweeping blocking configurations and ranks.

    Plans are rank-independent: the same partition serves every rank and
    every rank-blocking choice (strips only re-slice columns).  The
    benchmark harness sweeps 7 ranks x ~20 heuristic probes per data set;
    caching by block grid turns that from hundreds of partitions into a
    handful.
    """

    def __init__(self, tensor: COOTensor, mode: int) -> None:
        self.tensor = tensor
        self.mode = mode
        self._plans: "dict[tuple[int, ...] | None, CSFPlan]" = {}

    def plan_for(
        self,
        block_counts: "tuple[int, ...] | None",
        rank_blocking: "RankBlocking | None",
    ) -> Plan:
        """Return a (cached) plan for one configuration."""
        key = None if block_counts is None else tuple(int(c) for c in block_counts)
        if key not in self._plans:
            self._plans[key] = prepare_plan(self.tensor, self.mode, key)
        plan = self._plans[key]
        if rank_blocking is None:
            return plan
        return plan.with_strips(_preset(key, rank_blocking), rank_blocking)

    def evaluator(self, rank: int, machine: MachineSpec):
        """A heuristic cost function backed by the cache."""

        def evaluate(
            block_counts: "tuple[int, ...] | None", rb: "RankBlocking | None"
        ) -> float:
            plan = self.plan_for(block_counts, rb)
            return predict_time(plan, rank, machine).total

        return evaluate

