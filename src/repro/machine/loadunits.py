"""Load/store-instruction accounting — the paper's second bottleneck.

Table I's type-3 pressure point shows that eliminating the accumulator's
load instructions cuts 18.8% of the SPLATT kernel's time even though the
accumulator always hits L1: the bottleneck is the *load units* in the
pipeline, not memory.  Register blocking (Algorithm 2) removes exactly
those instructions, at the cost of re-reading each fiber's ``val``/
``j_index`` once per register block (cheap: L1-resident).

Accounting (vector loads of ``vw`` doubles; scalars count as one op):

Baseline Algorithm 1, per rank strip of ``S`` columns
    per nonzero:  ``val`` + ``j_index`` (2 scalar) + ``S/vw`` B loads
    + ``S/vw`` accumulator loads + ``S/vw`` accumulator stores
    per fiber:    ``k_index`` + ``k_pointer`` (2 scalar) + ``S/vw`` C loads
    + ``S/vw`` A loads + ``S/vw`` A stores

Algorithm 2 with register blocking (``S`` split into ``g`` register
blocks of ``w`` columns)
    per nonzero:  ``g * (2 + w/vw)`` loads — the accumulator lives in
    registers; ``val``/``j_index`` are re-read per register-block pass
    per fiber:    unchanged

The breakdown is kept per source so the pressure-point harness
(:mod:`repro.perf.ppa`) can ablate individual terms exactly the way the
paper patches individual instruction groups.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernels.base import Plan
from repro.machine.spec import MachineSpec
from repro.util.validation import check_rank


@dataclass(frozen=True)
class LoadEstimate:
    """Load/store micro-op counts of one MTTKRP execution, by source."""

    #: Scalar loads of the tensor streams (val, j_index, k_index, k_ptr).
    stream_loads: float
    #: Vector loads of inner-factor (``B``) rows.
    b_loads: float
    #: Accumulator loads (zero under register blocking).
    acc_loads: float
    #: Accumulator stores (zero under register blocking).
    acc_stores: float
    #: Vector loads of fiber-factor (``C``) rows.
    c_loads: float
    #: Vector loads of output (``A``) rows.
    a_loads: float
    #: Vector stores of output rows.
    a_stores: float
    #: Loop-bookkeeping micro-ops (address generation, pointer updates)
    #: issued once per nonzero and fiber *per pass*: rank strips re-run the
    #: whole fiber iteration, so this term grows linearly with the strip
    #: count — the fixed cost that caps useful strip counts in Figure 4.
    loop_ops: float = 0.0

    @property
    def loads(self) -> float:
        """All load micro-ops."""
        return (
            self.stream_loads
            + self.b_loads
            + self.acc_loads
            + self.c_loads
            + self.a_loads
        )

    @property
    def stores(self) -> float:
        """All store micro-ops."""
        return self.acc_stores + self.a_stores

    @property
    def total_ops(self) -> float:
        """Micro-ops contending for the load/store (and address) units."""
        return self.loads + self.stores + self.loop_ops


def estimate_loads(plan: Plan, rank: int, machine: MachineSpec) -> LoadEstimate:
    """Count load/store micro-ops for executing ``plan`` at ``rank``."""
    rank = check_rank(rank)
    vw = int(machine.vector_doubles)
    stats = plan.block_stats()
    nnz = float(sum(b.nnz for b in stats))
    fibers = float(sum(b.n_fibers for b in stats))

    rank_blocking = plan.rank_blocking
    strips = plan.strips(rank)

    stream = b_loads = acc_loads = acc_stores = 0.0
    c_loads = a_loads = a_stores = 0.0
    loop_ops = (nnz + fibers) * float(len(strips))
    for lo, hi in strips:
        s_cols = hi - lo
        vec = -(-s_cols // vw)  # vector loads covering one strip row
        if rank_blocking is not None:
            w = min(rank_blocking.register_block, s_cols)
            groups = rank_blocking.register_blocks(s_cols)
            w_vec = -(-w // vw)
            # Register-blocked inner loop: no accumulator memory traffic,
            # but the val/j_index pair is re-read once per register block.
            stream += nnz * groups * 2.0
            b_loads += nnz * groups * w_vec
        else:
            stream += nnz * 2.0
            b_loads += nnz * vec
            acc_loads += nnz * vec
            acc_stores += nnz * vec
        # Fiber epilogue is identical in both algorithms.
        stream += fibers * 2.0
        c_loads += fibers * vec
        a_loads += fibers * vec
        a_stores += fibers * vec

    return LoadEstimate(
        stream_loads=stream,
        b_loads=b_loads,
        acc_loads=acc_loads,
        acc_stores=acc_stores,
        c_loads=c_loads,
        a_loads=a_loads,
        a_stores=a_stores,
        loop_ops=loop_ops,
    )
