"""Block-size selection heuristic (Section V-C).

The paper's procedure, verbatim:

* **Rank blocking** — "go through block sizes in 128 bytes increments —
  equivalent to the cache line size on our experimental system — until the
  performance stops improving."
* **Multi-dimensional blocking** — "start with the longest mode, and
  increase the number of blocks along that mode until the performance
  stops improving, and then traverse the other modes in descending order
  of mode lengths. ... When multiple modes have similar lengths, we block
  them in the order of access volume — i.e., mode-2, mode-3, and then
  mode-1."

The search is *evaluator-driven*: callers pass a function scoring one
candidate configuration (lower is better).  The performance model
(:meth:`repro.perf.model.ConfigPlanner.evaluator`) provides the default scorer;
a wall-clock scorer gives the autotuning ablation
(the ``ablation_heuristic`` benchmark).

Cost: the sweep makes :math:`O(\\log_2 I_n)` evaluations per mode plus
:math:`R/16` for the rank — "relatively inexpensive compared to the
10-1000s of iterations required for decomposition."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.blocking.rank import REGISTER_BLOCK_COLS, RankBlocking
from repro.tensor.coo import COOTensor
from repro.util.errors import ConfigError
from repro.util.validation import check_mode, check_rank, require

#: Evaluator signature: (block_counts or None, RankBlocking or None) -> cost.
Evaluator = Callable[["tuple[int, ...] | None", "RankBlocking | None"], float]

#: Relative improvement below which the sweep treats a step as "stopped
#: improving" (guards against model noise on flat plateaus).
IMPROVEMENT_TOLERANCE = 1e-3


@dataclass
class BlockingChoice:
    """Result of the heuristic search."""

    #: Chosen per-mode block counts (``None`` = no multi-dim blocking).
    block_counts: "tuple[int, ...] | None"
    #: Chosen rank blocking (``None`` = no rank blocking).
    rank_blocking: "RankBlocking | None"
    #: Evaluator cost of the chosen configuration.
    cost: float
    #: Every (block_counts, rank_blocking, cost) probed, in order.
    trace: list[tuple["tuple[int, ...] | None", "RankBlocking | None", float]] = field(
        default_factory=list
    )

    @property
    def n_evaluations(self) -> int:
        """Number of configurations the search scored."""
        return len(self.trace)


def _mode_search_order(
    tensor: COOTensor, mode: int, inner_mode: int, fiber_mode: int
) -> list[int]:
    """Modes ordered by descending length; ties broken by access volume
    (inner factor first — the most expensive stream, Section IV-B)."""
    volume_rank = {inner_mode: 0, fiber_mode: 1, mode: 2}
    return sorted(
        range(tensor.order),
        key=lambda m: (-tensor.shape[m], volume_rank[m]),
    )


def select_blocking(
    tensor: COOTensor,
    mode: int,
    rank: int,
    evaluate: Evaluator,
    *,
    use_mb: bool = True,
    use_rankb: bool = True,
    max_blocks_per_mode: int = 64,
) -> BlockingChoice:
    """Run the Section V-C greedy search.

    Parameters
    ----------
    tensor, mode, rank: the MTTKRP instance being tuned.
    evaluate: cost function; see :data:`Evaluator`.  It is called with
        ``(None, None)`` first to score the unblocked baseline.
    use_mb / use_rankb: restrict the search to one technique (the Figure 6
        ``MB`` and ``RankB`` series use one each; ``MB+RankB`` uses both).
    max_blocks_per_mode: safety cap on the per-mode doubling sweep.
    """
    mode = check_mode(mode, tensor.order)
    rank = check_rank(rank)
    require(use_mb or use_rankb, "enable at least one blocking technique")
    if tensor.order != 3:
        raise ConfigError("the blocking heuristic is implemented for 3 modes")
    inner_mode = (mode + 1) % 3
    fiber_mode = (mode + 2) % 3

    trace: list[tuple[tuple[int, ...] | None, RankBlocking | None, float]] = []

    def score(
        counts: "tuple[int, ...] | None", rb: "RankBlocking | None"
    ) -> float:
        cost = float(evaluate(counts, rb))
        trace.append((counts, rb, cost))
        return cost

    baseline_cost = score(None, None)
    best_counts: tuple[int, ...] | None = None
    best_rb: RankBlocking | None = None
    best_cost = baseline_cost

    def mb_sweep() -> tuple["tuple[int, ...] | None", float]:
        """Greedy per-mode doubling sweep (Section V-C, MB part)."""
        counts = [1, 1, 1]
        current = baseline_cost
        for m in _mode_search_order(tensor, mode, inner_mode, fiber_mode):
            while counts[m] * 2 <= min(tensor.shape[m], max_blocks_per_mode):
                trial = counts.copy()
                trial[m] *= 2
                cost = score(tuple(trial), None)
                if cost < current * (1.0 - IMPROVEMENT_TOLERANCE):
                    counts = trial
                    current = cost
                else:
                    break
        if tuple(counts) == (1, 1, 1):
            return None, baseline_cost
        return tuple(counts), current

    def rank_sweep(
        base_counts: "tuple[int, ...] | None", start_cost: float
    ) -> tuple["RankBlocking | None", float]:
        """Strip-width sweep in cache-line (16-column) steps, "until the
        performance stops improving" (two consecutive misses)."""
        current = start_cost
        chosen: RankBlocking | None = None
        misses = 0
        for cols in range(REGISTER_BLOCK_COLS, rank, REGISTER_BLOCK_COLS):
            rb = RankBlocking(block_cols=cols)
            cost = score(base_counts, rb)
            if cost < current * (1.0 - IMPROVEMENT_TOLERANCE):
                current = cost
                chosen = rb
                misses = 0
            else:
                misses += 1
                if misses >= 2:
                    break
        return chosen, current

    # Candidate paths: MB alone, RankB alone, and RankB on top of the MB
    # grid (Figure 3b).  Evaluating the single-technique paths inside the
    # combined search guarantees the combination never loses to either
    # technique by a search artifact.
    mb_counts: tuple[int, ...] | None = None
    if use_mb:
        mb_counts, mb_cost = mb_sweep()
        if mb_counts is not None and mb_cost < best_cost:
            best_counts, best_rb, best_cost = mb_counts, None, mb_cost
    if use_rankb and rank > REGISTER_BLOCK_COLS:
        rb_only, rb_cost = rank_sweep(None, baseline_cost)
        if rb_only is not None and rb_cost < best_cost:
            best_counts, best_rb, best_cost = None, rb_only, rb_cost
        if use_mb and mb_counts is not None:
            rb_combo, combo_cost = rank_sweep(mb_counts, mb_cost)
            if rb_combo is not None and combo_cost < best_cost:
                best_counts, best_rb, best_cost = mb_counts, rb_combo, combo_cost

    return BlockingChoice(
        block_counts=best_counts,
        rank_blocking=best_rb,
        cost=best_cost,
        trace=trace,
    )
