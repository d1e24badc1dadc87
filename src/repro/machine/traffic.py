"""Analytic memory-traffic model for MTTKRP plans.

This is the fast substitute for trace-driven cache simulation: it turns
the per-phase structural summaries (:class:`repro.kernels.base.BlockStats`)
into estimated traffic per data structure.  The mechanism mirrors the
paper's Equation 1 — the factor matrices contribute ``(1 - alpha) * R``
words per access, and blocking exists precisely to raise ``alpha`` — with
two refinements that match the paper's POWER8 testbed:

**Two cost tiers.**  Rows resident in the *fast* tier (aggregate L2) are
free; rows resident only in the *slow* tier (eDRAM L3) pay the L3 gather
bandwidth; everything else pays DRAM bandwidth.  (Table I is unexplainable
with a single tier: the paper's measured savings imply B hits L3 heavily
on a single core, yet socket-scale blocking still pays off by pulling the
working set into L2.)

**Frequency-weighted residency.**  Real tensors are heavily skewed —
Poisson-mixture "count" data and power-law recommender data both
concentrate accesses on hot factor rows, and LRU keeps hot rows resident.
Each phase's :class:`~repro.kernels.base.BlockStats` carries the access
histogram of its distinct rows; the model grants residency to the hottest
rows across B and C jointly until the tier's usable capacity is full.
Resident rows miss once (compulsory); non-resident rows miss on every
access.  (Inverting the paper's Table I numbers gives alpha_B ~ 0.86 on a
working set 3.5x the cache — only popularity-weighted residency produces
that.)  Phases without histograms fall back to a uniform
proportional-share model.

The output factor ``A`` has near-perfect temporal locality (all fibers of
an output row are adjacent — the "short re-use distance" for which
Equation 1 ignores it), so it contributes only per-phase compulsory
fetches and write-backs and does not compete for capacity.

Phases start cold for the factors (the redundant-access penalty of
Section V-A is exactly this per-phase compulsory traffic), while the
tensor streams (``val``, ``j_index``, ``k_index``/``k_pointer``) are
streamed from DRAM once per rank strip (Algorithm 2 re-reads the tensor
every strip).

The test suite validates these estimates against the exact LRU simulator
(:mod:`repro.machine.cache`) on real traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.base import BlockStats, Plan
from repro.machine.spec import MachineSpec
from repro.util.validation import check_rank

#: Fraction of each cache tier usable by factor rows; the remainder is
#: occupied by the streaming tensor data flowing through the cache.
_FACTOR_CACHE_FRACTION = 0.85


@dataclass(frozen=True)
class StructureTraffic:
    """Per-structure access/miss accounting (row granularity + bytes)."""

    #: Row accesses made to this structure.
    accesses: float
    #: Row accesses that missed the fast tier (served by L3 or DRAM).
    fast_misses: float
    #: Row accesses that missed every cache tier (served by DRAM).
    mem_misses: float
    #: Bytes served by the slow cache tier (L3 gathers).
    l3_read_bytes: float
    #: Bytes fetched from memory.
    read_bytes: float
    #: Bytes written back to memory (nonzero only for the output factor).
    write_bytes: float = 0.0

    @property
    def alpha(self) -> float:
        """Cache hit rate (any tier) on this structure — the paper's
        per-structure alpha."""
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.mem_misses / self.accesses

    @property
    def fast_alpha(self) -> float:
        """Hit rate of the fast (L2) tier alone."""
        if self.accesses == 0:
            return 1.0
        return 1.0 - self.fast_misses / self.accesses

    def merged(self, other: "StructureTraffic") -> "StructureTraffic":
        """Accumulate accounting across phases."""
        return StructureTraffic(
            accesses=self.accesses + other.accesses,
            fast_misses=self.fast_misses + other.fast_misses,
            mem_misses=self.mem_misses + other.mem_misses,
            l3_read_bytes=self.l3_read_bytes + other.l3_read_bytes,
            read_bytes=self.read_bytes + other.read_bytes,
            write_bytes=self.write_bytes + other.write_bytes,
        )


_EMPTY = StructureTraffic(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class TrafficEstimate:
    """Estimated memory traffic of one full MTTKRP execution."""

    #: Tensor-stream bytes (val, j_index, k_index, k_pointer), all strips.
    stream_read_bytes: float
    #: Inner-mode factor (``B`` — the paper's dominant term).
    b: StructureTraffic
    #: Fiber-mode factor (``C``).
    c: StructureTraffic
    #: Output factor (``A``): misses fetch, evictions write back.
    a: StructureTraffic

    @property
    def read_bytes(self) -> float:
        """Total bytes read from DRAM."""
        return (
            self.stream_read_bytes
            + self.b.read_bytes
            + self.c.read_bytes
            + self.a.read_bytes
        )

    @property
    def l3_read_bytes(self) -> float:
        """Total bytes gathered from the slow cache tier."""
        return self.b.l3_read_bytes + self.c.l3_read_bytes + self.a.l3_read_bytes

    @property
    def write_bytes(self) -> float:
        """Total bytes written to memory."""
        return self.a.write_bytes

    @property
    def total_bytes(self) -> float:
        """DRAM read + write traffic."""
        return self.read_bytes + self.write_bytes

    @property
    def factor_alpha(self) -> float:
        """Aggregate cache hit rate over all factor-row accesses — the
        single alpha of Equation 1."""
        accesses = self.b.accesses + self.c.accesses + self.a.accesses
        if accesses == 0:
            return 1.0
        misses = self.b.mem_misses + self.c.mem_misses + self.a.mem_misses
        return 1.0 - misses / accesses


def _line_rounded(row_bytes: float, line_bytes: int) -> float:
    """Bytes actually moved per row miss (whole cache lines)."""
    lines = -(-int(row_bytes) // line_bytes)
    return float(max(1, lines) * line_bytes)


class _PhaseProfile:
    """Precomputed popularity profile of one phase, reused across strips.

    Rows of B and C are ranked jointly by access count; prefix sums give,
    for any residency budget of K rows, each structure's resident row and
    access totals in O(1).
    """

    def __init__(self, stats: BlockStats) -> None:
        self.stats = stats
        self.uniform = stats.inner_counts is None or stats.fiber_counts is None
        if self.uniform:
            return
        # Intentional float64: these are integer access *counts* feeding
        # cumsum prefix sums inside the analytic traffic model — model
        # precision is independent of the factor/value dtype contract,
        # and float32 prefix sums lose integer exactness past 2^24.
        counts = np.concatenate(
            [
                np.asarray(stats.inner_counts, dtype=np.float64),  # repro: noqa[DF601]
                np.asarray(stats.fiber_counts, dtype=np.float64),  # repro: noqa[DF601]
            ]
        )
        is_inner = np.zeros(counts.shape[0], dtype=bool)
        is_inner[: stats.distinct_inner] = True
        order = np.argsort(-counts, kind="stable")
        counts = counts[order]
        is_inner = is_inner[order]
        # prefix[k] = totals over the k hottest rows.
        self.rows_b = np.concatenate(([0.0], np.cumsum(is_inner)))
        self.rows_c = np.concatenate(([0.0], np.cumsum(~is_inner)))
        self.accs_b = np.concatenate(([0.0], np.cumsum(counts * is_inner)))
        self.accs_c = np.concatenate(([0.0], np.cumsum(counts * ~is_inner)))
        self.n_rows = counts.shape[0]

    def misses(self, k_resident: int) -> tuple[float, float]:
        """(miss_B, miss_C) when the ``k_resident`` hottest rows stay
        cached: resident rows miss once, others on every access."""
        s = self.stats
        k = min(max(k_resident, 0), self.n_rows)
        miss_b = self.rows_b[k] + (s.nnz - self.accs_b[k])
        miss_c = self.rows_c[k] + (s.n_fibers - self.accs_c[k])
        return float(miss_b), float(miss_c)

    def misses_uniform(self, usable_bytes: float, row_bytes: float) -> tuple[float, float]:
        """Proportional-share fallback when no histograms are available."""
        s = self.stats
        n = {"B": float(s.nnz), "C": float(s.n_fibers)}
        d = {"B": float(s.distinct_inner), "C": float(s.distinct_fiber)}
        working = {k: d[k] * row_bytes for k in n}
        if sum(working.values()) <= usable_bytes:
            return d["B"], d["C"]
        total_n = n["B"] + n["C"] or 1.0
        out = {}
        for k in n:
            share = usable_bytes * n[k] / total_n
            resident = min(1.0, share / working[k]) if working[k] > 0 else 1.0
            out[k] = d[k] + (n[k] - d[k]) * (1.0 - resident)
        return out["B"], out["C"]


def _phase_traffic(
    profile: _PhaseProfile,
    row_bytes: float,
    machine: MachineSpec,
) -> tuple[StructureTraffic, StructureTraffic, StructureTraffic]:
    """Apply the two-tier residency model to one phase: (B, C, A)."""
    stats = profile.stats
    fetch = _line_rounded(row_bytes, machine.line_bytes)
    usable_fast = machine.fast_cache_bytes * _FACTOR_CACHE_FRACTION
    usable_slow = machine.effective_cache_bytes * _FACTOR_CACHE_FRACTION

    if profile.uniform:
        fast_b, fast_c = profile.misses_uniform(usable_fast, row_bytes)
        slow_b, slow_c = profile.misses_uniform(usable_slow, row_bytes)
    else:
        fast_b, fast_c = profile.misses(int(usable_fast // row_bytes))
        slow_b, slow_c = profile.misses(int(usable_slow // row_bytes))

    def st(n: float, fast: float, slow: float) -> StructureTraffic:
        mem = min(slow, fast)
        return StructureTraffic(
            accesses=n,
            fast_misses=fast,
            mem_misses=mem,
            l3_read_bytes=max(0.0, fast - mem) * fetch,
            read_bytes=mem * fetch,
        )

    d_a = float(stats.distinct_out)
    a = StructureTraffic(
        accesses=float(stats.n_fibers),
        fast_misses=d_a,
        mem_misses=d_a,
        l3_read_bytes=0.0,
        read_bytes=d_a * fetch,
        write_bytes=d_a * fetch,
    )
    return (
        st(float(stats.nnz), fast_b, slow_b),
        st(float(stats.n_fibers), fast_c, slow_c),
        a,
    )


def estimate_traffic(
    plan: Plan, rank: int, machine: MachineSpec, *, itemsize: int = 8
) -> TrafficEstimate:
    """Estimate the memory traffic of executing ``plan`` at rank ``rank``.

    Rank strips (``plan.rank_blocking``) multiply the stream traffic (the
    tensor is re-read once per strip, Algorithm 2) and shrink the row
    width each phase works with; mode blocks contribute their per-phase
    compulsory misses (the Section V-A redundancy).

    ``itemsize`` is the element size in bytes of the values/factors
    (8 for float64, 4 for float32): factor rows and the value stream
    scale with it, while index/pointer streams stay 8-byte integers.
    """
    rank = check_rank(rank)
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    stats = plan.block_stats()
    strips = plan.strips(rank)

    total_nnz = sum(b.nnz for b in stats)
    total_fibers = sum(b.n_fibers for b in stats)
    # val (itemsize) + j_index (8) per nonzero, k_index + k_pointer
    # (8 each) per fiber, per strip.
    stream_bytes = len(strips) * (
        (itemsize + 8.0) * total_nnz + 16.0 * total_fibers
    )

    profiles = [_PhaseProfile(s) for s in stats]
    acc_b, acc_c, acc_a = _EMPTY, _EMPTY, _EMPTY
    for lo, hi in strips:
        row_bytes = (hi - lo) * float(itemsize)
        for profile in profiles:
            b, c, a = _phase_traffic(profile, row_bytes, machine)
            acc_b = acc_b.merged(b)
            acc_c = acc_c.merged(c)
            acc_a = acc_a.merged(a)

    return TrafficEstimate(
        stream_read_bytes=stream_bytes,
        b=acc_b,
        c=acc_c,
        a=acc_a,
    )


@dataclass(frozen=True)
class FootprintPrediction:
    """The access-count side of the traffic model, before cache effects.

    These are the invariants the execution sanitizer cross-checks against
    observed gathers (rule SZ506): the B factor is gathered once per
    nonzero per rank strip, the C factor once per fiber per strip, and
    the distinct-row footprint is bounded by the per-phase sum.
    """

    n_strips: int
    b_accesses: int
    c_accesses: int
    #: Upper bounds: per-phase distinct rows, summed over phases (rows
    #: shared between phases are counted once per phase).
    b_distinct_max: int
    c_distinct_max: int


def predicted_footprint(plan: Plan, rank: int) -> FootprintPrediction:
    """Per-strip gather counts the analytic model assumes for ``plan``."""
    rank = check_rank(rank)
    stats = plan.block_stats()
    n_strips = len(plan.strips(rank))
    total_nnz = sum(b.nnz for b in stats)
    total_fibers = sum(b.n_fibers for b in stats)
    return FootprintPrediction(
        n_strips=n_strips,
        b_accesses=n_strips * total_nnz,
        c_accesses=n_strips * total_fibers,
        b_distinct_max=sum(b.distinct_inner for b in stats),
        c_distinct_max=sum(b.distinct_fiber for b in stats),
    )
