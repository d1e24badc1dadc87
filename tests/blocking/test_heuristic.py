"""Tests for the Section V-C block-size selection heuristic."""

import pytest

from repro.blocking import select_blocking
from repro.tensor import uniform_random_tensor
from repro.util.errors import ReproError


@pytest.fixture
def tensor():
    # Mode 1 is longest: the search must sweep it first.
    return uniform_random_tensor((30, 120, 60), 2500, seed=71)


def planted_evaluator(best_counts, best_cols):
    """Synthetic cost surface with a unique optimum, unimodal along each
    search direction (what the greedy sweep assumes)."""

    def evaluate(counts, rb):
        cost = 100.0
        if counts is not None:
            for c, target in zip(counts, best_counts):
                cost += abs(c - target) / target * 10.0 - 10.0
        if rb is not None:
            cols = rb.block_cols or 0
            cost += abs(cols - best_cols) / best_cols * 5.0 - 5.0
        return cost

    return evaluate


class TestSearch:
    def test_finds_planted_mb_optimum(self, tensor):
        choice = select_blocking(
            tensor, 0, 128, planted_evaluator((1, 8, 4), 32), use_rankb=False
        )
        assert choice.block_counts == (1, 8, 4)
        assert choice.rank_blocking is None

    def test_finds_planted_rank_optimum(self, tensor):
        choice = select_blocking(
            tensor, 0, 128, planted_evaluator((1, 1, 1), 32), use_mb=False
        )
        assert choice.block_counts is None
        assert choice.rank_blocking.block_cols == 32

    def test_combined_search(self, tensor):
        choice = select_blocking(tensor, 0, 128, planted_evaluator((1, 4, 2), 48))
        assert choice.block_counts == (1, 4, 2)
        assert choice.rank_blocking.block_cols == 48

    def test_no_blocking_when_baseline_wins(self, tensor):
        def baseline_best(counts, rb):
            return 1.0 if counts is None and rb is None else 2.0

        choice = select_blocking(tensor, 0, 128, baseline_best)
        assert choice.block_counts is None
        assert choice.rank_blocking is None
        assert choice.cost == 1.0

    def test_trace_records_every_probe(self, tensor):
        choice = select_blocking(tensor, 0, 128, planted_evaluator((1, 2, 1), 16))
        assert choice.n_evaluations == len(choice.trace)
        assert choice.trace[0] == (None, None, choice.trace[0][2])

    def test_longest_mode_swept_first(self, tensor):
        """The first MB probe must double the longest mode (mode 1)."""
        probes = []

        def spy(counts, rb):
            probes.append(counts)
            return 1.0  # never improves: one probe per mode then stop

        select_blocking(tensor, 0, 128, spy, use_rankb=False)
        assert probes[1] == (1, 2, 1)

    def test_rank_too_small_skips_rankb(self, tensor):
        choice = select_blocking(
            tensor, 0, 16, planted_evaluator((1, 1, 1), 16), use_mb=False
        )
        assert choice.rank_blocking is None

    def test_requires_some_technique(self, tensor):
        with pytest.raises(ReproError):
            select_blocking(
                tensor, 0, 64, lambda c, r: 1.0, use_mb=False, use_rankb=False
            )

    def test_block_cap_respected(self, tensor):
        def always_improves(counts, rb):
            if counts is None:
                return 1.0
            return 1.0 / (counts[0] * counts[1] * counts[2] + 1)

        choice = select_blocking(
            tensor, 0, 64, always_improves, use_rankb=False, max_blocks_per_mode=8
        )
        assert all(c <= 8 for c in choice.block_counts)
