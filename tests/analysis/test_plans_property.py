"""Property tests for the interval algebra behind the plan verifier."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.plans import (
    boundaries_to_intervals,
    tiling_report,
    verify_rank_blocking,
)
from repro.blocking.rank import RankBlocking
from repro.kernels.base import intervals_from_rows, merge_intervals


@st.composite
def boundary_vectors(draw):
    """A strictly increasing boundary vector 0 = b0 < ... < bk = extent."""
    extent = draw(st.integers(min_value=1, max_value=200))
    k = draw(st.integers(min_value=1, max_value=min(8, extent)))
    interior = draw(
        st.lists(
            st.integers(min_value=1, max_value=extent - 1),
            max_size=k,
            unique=True,
        )
        if extent > 1
        else st.just([])
    )
    return [0] + sorted(interior) + [extent], extent


class TestTilingProperties:
    @given(boundary_vectors())
    @settings(max_examples=60, deadline=None)
    def test_valid_boundaries_always_tile(self, bv):
        boundaries, extent = bv
        assert tiling_report(boundaries_to_intervals(boundaries), extent) == (
            [],
            [],
            [],
        )

    @given(boundary_vectors(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_dropping_an_interval_leaves_a_gap(self, bv, data):
        boundaries, extent = bv
        intervals = boundaries_to_intervals(boundaries)
        victim = data.draw(st.integers(0, len(intervals) - 1))
        kept = intervals[:victim] + intervals[victim + 1 :]
        gaps, overlaps, malformed = tiling_report(kept, extent)
        assert gaps == [intervals[victim]]
        assert not overlaps and not malformed

    @given(boundary_vectors(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_duplicating_an_interval_overlaps(self, bv, data):
        boundaries, extent = bv
        intervals = boundaries_to_intervals(boundaries)
        victim = data.draw(st.integers(0, len(intervals) - 1))
        gaps, overlaps, malformed = tiling_report(
            intervals + [intervals[victim]], extent
        )
        assert overlaps == [intervals[victim]]
        assert not gaps and not malformed

    @given(boundary_vectors())
    @settings(max_examples=60, deadline=None)
    def test_shuffled_order_is_irrelevant(self, bv):
        boundaries, extent = bv
        intervals = boundaries_to_intervals(boundaries)
        assert tiling_report(reversed(intervals), extent) == ([], [], [])

    @given(boundary_vectors())
    @settings(max_examples=60, deadline=None)
    def test_report_matches_exhaustive_count(self, bv):
        """Cross-check the sweep against a brute-force cover count."""
        boundaries, extent = bv
        intervals = boundaries_to_intervals(boundaries)
        # Corrupt deterministically: drop the first interval.
        kept = intervals[1:]
        cover = np.zeros(extent, dtype=int)
        for lo, hi in kept:
            cover[lo:hi] += 1
        gaps, overlaps, _ = tiling_report(kept, extent)
        gap_points = {i for lo, hi in gaps for i in range(lo, hi)}
        over_points = {i for lo, hi in overlaps for i in range(lo, hi)}
        assert gap_points == set(np.flatnonzero(cover == 0))
        assert over_points == set(np.flatnonzero(cover > 1))


class TestRankBlockingProperties:
    @given(
        rank=st.integers(min_value=1, max_value=512),
        block_cols=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_cols_configs_always_tile(self, rank, block_cols):
        assert verify_rank_blocking(RankBlocking(block_cols=block_cols), rank) == []

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_n_blocks_configs_always_tile(self, data):
        rank = data.draw(st.integers(min_value=1, max_value=512))
        n_blocks = data.draw(st.integers(min_value=1, max_value=rank))
        assert verify_rank_blocking(RankBlocking(n_blocks=n_blocks), rank) == []


class TestWriteSetHelpers:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=100), min_size=0, max_size=40
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_intervals_from_rows_roundtrip(self, rows):
        unique = np.unique(np.asarray(rows, dtype=np.int64))
        intervals = intervals_from_rows(unique)
        covered = sorted(i for lo, hi in intervals for i in range(lo, hi))
        assert covered == unique.tolist()
        # Intervals are disjoint, sorted, and maximal (non-adjacent).
        for (a_lo, a_hi), (b_lo, b_hi) in zip(intervals, intervals[1:]):
            assert a_hi < b_lo

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=50),
                st.integers(min_value=0, max_value=50),
            ).map(lambda p: (min(p), max(p))),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_intervals_preserves_coverage(self, intervals):
        merged = merge_intervals(intervals)
        want = {i for lo, hi in intervals for i in range(lo, hi)}
        got = {i for lo, hi in merged for i in range(lo, hi)}
        assert got == want
        for (a_lo, a_hi), (b_lo, b_hi) in zip(merged, merged[1:]):
            assert a_hi < b_lo
