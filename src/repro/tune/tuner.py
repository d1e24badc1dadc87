"""Search strategies over the blocking-configuration space.

``heuristic``
    The Section V-C greedy (delegates to
    :func:`repro.blocking.heuristic.select_blocking`), ~20 evaluations.
``exhaustive``
    Full grid over power-of-two block counts x cache-line strip widths —
    the ground truth the heuristic ablation compares against.

Both strategies share the model-backed cost surface through
:class:`repro.perf.model.ConfigPlanner`, and :meth:`Tuner.get_or_tune`
consults the :class:`repro.tune.cache.TuningCache` first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.blocking.grid import BlockGrid, resolve_grid
from repro.blocking.heuristic import select_blocking
from repro.blocking.rank import REGISTER_BLOCK_COLS, RankBlocking
from repro.machine.spec import MachineSpec
from repro.obs.tracer import current_tracer
from repro.perf.model import ConfigPlanner, predict_time
from repro.tensor.coo import COOTensor
from repro.tune.cache import CacheEntry, TuningCache
from repro.tune.signature import TensorSignature
from repro.util.errors import ConfigError
from repro.util.validation import check_mode, check_rank, require


@dataclass(frozen=True)
class TunedConfig:
    """The outcome of one tuning run."""

    block_counts: "tuple[int, ...] | None"
    rank_blocking: "RankBlocking | None"
    cost: float
    baseline_cost: float
    n_evaluations: int
    strategy: str
    from_cache: bool = False

    @property
    def speedup(self) -> float:
        """Modeled speedup over the unblocked SPLATT baseline."""
        return self.baseline_cost / self.cost if self.cost > 0 else 0.0


@dataclass(frozen=True)
class TunedThreads:
    """Model-backed thread-count choice for the parallel executor."""

    #: Thread count with the lowest modeled makespan.
    n_threads: int
    #: Modeled makespan at :attr:`n_threads`, seconds.
    makespan: float
    #: Modeled single-thread time, seconds.
    serial_time: float
    #: Modeled makespan per candidate thread count.
    makespans: "dict[int, float]"

    @property
    def speedup(self) -> float:
        """Modeled speedup of the chosen count over one thread."""
        return self.serial_time / self.makespan if self.makespan > 0 else 0.0


class Tuner:
    """Tunes blocking configurations for (tensor, mode, rank, machine)."""

    def __init__(
        self,
        tensor: COOTensor,
        mode: int,
        machine: MachineSpec,
        *,
        cache: "TuningCache | None" = None,
        signature: "TensorSignature | None" = None,
    ) -> None:
        self.tensor = tensor
        self.mode = check_mode(mode, tensor.order)
        self.machine = machine
        self.cache = cache
        self.planner = ConfigPlanner(tensor, self.mode)
        if signature is not None:
            require(
                signature.mode == self.mode,
                f"signature is for mode {signature.mode}, tuner for {self.mode}",
            )
        self._signature = signature

    @property
    def signature(self) -> TensorSignature:
        """The tensor's structural fingerprint (computed lazily unless the
        caller passed one it already holds, e.g. the server's per-tensor
        memo)."""
        if self._signature is None:
            self._signature = TensorSignature.of(self.tensor, self.mode)
        return self._signature

    # ------------------------------------------------------------------
    def _evaluate(self, counts, rb, rank: int) -> float:
        tracer = current_tracer()
        if not tracer.enabled:
            plan = self.planner.plan_for(counts, rb)
            return predict_time(plan, rank, self.machine).total
        with tracer.span(
            "tune.evaluate",
            counts=None if counts is None else list(counts),
            strip_cols=None if rb is None else rb.block_cols,
        ) as sp:
            plan = self.planner.plan_for(counts, rb)
            cost = predict_time(plan, rank, self.machine).total
            sp.meta["cost"] = cost
        tracer.count("tune.evaluations", 1)
        return cost

    def _diagnostics(self, counts, rb, rank: int) -> list:
        """Plan-verifier diagnostics for a configuration, from its grid and
        strips alone.

        With no machine given, ``verify_plan`` on a SPLATT-family plan
        checks only the plan's block grid (PL401/PL402) and rank blocking
        (PL403/PL404), so verifying those two directly gives the same
        diagnostics without sorting the tensor into a plan.  Counts that
        cannot form a grid raise here exactly as the plan build would.
        """
        from repro.analysis.plans import verify_plan

        shape = self.tensor.shape
        grid = resolve_grid(shape, None, counts) or BlockGrid(
            shape, (1,) * len(shape)
        )
        out = verify_plan(grid)
        if rb is not None:
            out += verify_plan(rb, rank=rank)
        return out

    def _verify(self, counts, rb, rank: int, origin: str) -> None:
        """Run the plan verifier on a candidate configuration; a search
        strategy (or a stale cache entry) must never hand out a
        configuration that fails the index-space soundness proof."""
        from repro.analysis.diagnostics import Severity

        errors = [
            d
            for d in self._diagnostics(counts, rb, rank)
            if d.severity is Severity.ERROR
        ]
        if errors:
            raise ConfigError(
                f"{origin} configuration failed plan verification: "
                + "; ".join(d.message for d in errors[:3])
            )

    def tune(
        self,
        rank: int,
        strategy: str = "heuristic",
        *,
        max_blocks_per_mode: int = 64,
    ) -> TunedConfig:
        """Search for a configuration; does not consult the cache."""
        rank = check_rank(rank)
        baseline = self._evaluate(None, None, rank)

        if strategy == "heuristic":
            evaluate = self.planner.evaluator(rank, self.machine)
            tracer = current_tracer()
            if tracer.enabled:
                base_evaluate = evaluate

                def evaluate(*args: object, **kwargs: object) -> float:
                    with tracer.span("tune.evaluate", strategy="heuristic") as sp:
                        cost = base_evaluate(*args, **kwargs)
                        sp.meta["cost"] = cost
                    tracer.count("tune.evaluations", 1)
                    return cost

            choice = select_blocking(
                self.tensor,
                self.mode,
                rank,
                evaluate,
                max_blocks_per_mode=max_blocks_per_mode,
            )
            return TunedConfig(
                block_counts=choice.block_counts,
                rank_blocking=choice.rank_blocking,
                cost=choice.cost,
                baseline_cost=baseline,
                n_evaluations=choice.n_evaluations,
                strategy=strategy,
            )

        if strategy != "exhaustive":
            raise ConfigError(
                f"unknown strategy {strategy!r}; use heuristic/exhaustive"
            )

        best = (None, None, baseline)
        n_evals = 1
        for counts, rb in self._exhaustive_space(rank, max_blocks_per_mode):
            cost = self._evaluate(counts, rb, rank)
            n_evals += 1
            if cost < best[2]:
                best = (counts, rb, cost)
        return TunedConfig(
            block_counts=best[0],
            rank_blocking=best[1],
            cost=best[2],
            baseline_cost=baseline,
            n_evaluations=n_evals,
            strategy=strategy,
        )

    def _exhaustive_space(self, rank: int, max_blocks: int):
        counts_axis = [1]
        while counts_axis[-1] * 2 <= max_blocks:
            counts_axis.append(counts_axis[-1] * 2)
        strips = [None, *range(REGISTER_BLOCK_COLS, rank, REGISTER_BLOCK_COLS)]
        for counts in itertools.product(counts_axis, repeat=self.tensor.order):
            if any(c > s for c, s in zip(counts, self.tensor.shape)):
                continue
            key = None if all(c == 1 for c in counts) else counts
            for cols in strips:
                rb = None if cols is None else RankBlocking(block_cols=cols)
                if key is None and rb is None:
                    continue  # baseline already scored
                yield key, rb

    # ------------------------------------------------------------------
    def tune_threads(
        self,
        rank: int,
        thread_counts: "tuple[int, ...]" = (1, 2, 4, 8, 10, 20),
        *,
        block_counts: "tuple[int, ...] | None" = None,
        rank_blocking: "RankBlocking | None" = None,
        socket_read_bandwidth: "float | None" = 75e9,
        socket_write_bandwidth: "float | None" = 35e9,
    ) -> TunedThreads:
        """Pick the thread count with the lowest modeled makespan.

        Sweeps :func:`repro.perf.parallel.parallel_predict_time` over
        ``thread_counts``, treating this tuner's machine as the
        *single-core* spec whose bandwidth share shrinks as threads pile
        onto the socket.  Ties go to the smaller count (fewer threads at
        equal makespan is strictly cheaper).  The result feeds
        :class:`repro.exec.ParallelExecutor`'s ``n_threads``.
        """
        from repro.perf.parallel import parallel_predict_time

        rank = check_rank(rank)
        require(len(thread_counts) >= 1, "need at least one thread count")
        makespans: "dict[int, float]" = {}
        for t in thread_counts:
            est = parallel_predict_time(
                self.tensor,
                self.mode,
                rank,
                self.machine,
                int(t),
                socket_read_bandwidth=socket_read_bandwidth,
                socket_write_bandwidth=socket_write_bandwidth,
                block_counts=block_counts,
                rank_blocking=rank_blocking,
            )
            makespans[int(t)] = est.makespan
        serial = makespans.get(1)
        if serial is None:
            serial = parallel_predict_time(
                self.tensor,
                self.mode,
                rank,
                self.machine,
                1,
                socket_read_bandwidth=socket_read_bandwidth,
                socket_write_bandwidth=socket_write_bandwidth,
                block_counts=block_counts,
                rank_blocking=rank_blocking,
            ).makespan
        best = min(makespans, key=lambda t: (makespans[t], t))
        return TunedThreads(
            n_threads=best,
            makespan=makespans[best],
            serial_time=serial,
            makespans=makespans,
        )

    # ------------------------------------------------------------------
    def get_or_tune(
        self, rank: int, strategy: str = "heuristic", **tune_kwargs
    ) -> TunedConfig:
        """Cache-first tuning: reuse a stored configuration when the
        tensor's signature has been tuned before on this machine.

        A hit is a lookup plus a shape-only soundness check of the stored
        grid and strips: it builds no plan and evaluates no model, and
        returns the costs recorded when the entry was tuned.

        Entries are dtype-checked: a hit whose recorded itemsize differs
        from this tensor's (including legacy entries that recorded none)
        is treated as a miss, since the traffic model's working sets —
        and therefore the tuned configuration — scale with element size.
        Entries without a recorded baseline cost are misses too.
        """
        tracer = current_tracer()
        with tracer.span(
            "tune.get_or_tune", rank=int(rank), strategy=strategy
        ) as sp:
            if self.cache is not None:
                hit = self.cache.get(
                    self.signature.key(), rank, self.machine.name
                )
                if hit is not None and (
                    hit.itemsize != self.signature.itemsize
                    or hit.baseline_cost is None
                ):
                    hit = None  # legacy, cross-dtype or unpriced: re-tune
                if hit is not None:
                    try:
                        rb = hit.rank_blocking()
                        self._verify(hit.block_counts, rb, rank, "cached")
                    except ConfigError:
                        hit = None  # stale/unsound entry: fall through, re-tune
                if hit is not None:
                    if tracer.enabled:
                        tracer.count("tune.cache_hits", 1)
                        sp.meta["cache"] = "hit"
                    return TunedConfig(
                        block_counts=hit.block_counts,
                        rank_blocking=rb,
                        cost=hit.cost,
                        baseline_cost=hit.baseline_cost,
                        n_evaluations=0,
                        strategy=hit.strategy,
                        from_cache=True,
                    )
                if tracer.enabled:
                    tracer.count("tune.cache_misses", 1)
                    sp.meta["cache"] = "miss"
            result = self.tune(rank, strategy, **tune_kwargs)
            if self.cache is not None:
                self._verify(
                    result.block_counts, result.rank_blocking, rank, "tuned"
                )
                self.cache.put(
                    self.signature.key(),
                    rank,
                    self.machine.name,
                    CacheEntry(
                        block_counts=result.block_counts,
                        rank_block_cols=(
                            None
                            if result.rank_blocking is None
                            else result.rank_blocking.resolve_block_cols(rank)
                        ),
                        cost=result.cost,
                        strategy=strategy,
                        itemsize=self.signature.itemsize,
                        baseline_cost=result.baseline_cost,
                    ),
                )
            return result
