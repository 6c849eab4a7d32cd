"""Tests for virtual streams: routing, one counter array, combination."""

import numpy as np
import pytest

from repro.core import VirtualStreams, is_prime, next_prime
from repro.errors import ConfigError


class TestPrimes:
    @pytest.mark.parametrize("n,expected", [
        (0, False), (1, False), (2, True), (3, True), (4, False),
        (29, True), (229, True), (230, False), (7919, True),
    ])
    def test_is_prime(self, n, expected):
        assert is_prime(n) is expected

    def test_next_prime(self):
        assert next_prime(1) == 2
        assert next_prime(228) == 229
        assert next_prime(229) == 229


class TestRouting:
    def test_residue_partition(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0)
        for value in (0, 5, 31, 62, 10**12):
            assert streams.residue(value) == value % 31

    def test_nonprime_rejected(self):
        with pytest.raises(ConfigError):
            VirtualStreams(30, s1=4, s2=2)

    def test_single_stream_allowed(self):
        streams = VirtualStreams(1, s1=4, s2=2, seed=0)
        assert streams.residue(12345) == 0

    def test_every_stream_is_a_row_of_one_array(self):
        streams = VirtualStreams(229, s1=4, s2=2, seed=0)
        assert streams.counters.shape == (229, 8)
        assert streams.counters.dtype == np.int64
        assert all(
            streams.sketch(r).counters.base is streams.counters for r in range(229)
        )
        assert streams.n_nonzero == 0
        streams.sketch(5).update(5, 1)
        assert streams.n_nonzero == 1
        assert streams.counters[5].any() and not streams.counters[6].any()

    def test_sketches_share_xi(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0)
        assert streams.sketch(1).xi is streams.sketch(2).xi


class TestCombination:
    def test_combined_counters_sum(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0)
        streams.sketch(1).update(1, 10)
        streams.sketch(2).update(2, 7)
        combined = streams.combined_counters([1, 2])
        expected = streams.sketch(1).counters + streams.sketch(2).counters
        assert np.array_equal(combined, expected)

    def test_combined_counters_deduplicates_residues(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0)
        streams.sketch(1).update(1, 10)
        once = streams.combined_counters([1])
        twice = streams.combined_counters([1, 1])
        assert np.array_equal(once, twice)

    def test_combined_counters_missing_streams_are_zero(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0)
        assert not streams.combined_counters([3, 4]).any()

    def test_view_estimates_union(self):
        # Values in different virtual streams: the combined view must
        # estimate both (Section 5.3's X_i + X_j construction).  The
        # combined estimate is unbiased but carries cross-stream noise, so
        # only a loose bound is asserted here.
        streams = VirtualStreams(31, s1=40, s2=5, seed=1)
        streams.sketch(streams.residue(1)).update(1, 100)
        streams.sketch(streams.residue(2)).update(2, 50)
        view = streams.view([streams.residue(1), streams.residue(2)], [1, 2])
        assert view.estimate_sum([1, 2]) == pytest.approx(150.0, abs=40)

    def test_grouped_sum_is_exact_across_streams(self):
        # The per-stream refinement removes the cross-stream noise: with
        # one distinct value per stream the partial estimates are exact.
        streams = VirtualStreams(31, s1=40, s2=5, seed=1)
        streams.sketch(streams.residue(1)).update(1, 100)
        streams.sketch(streams.residue(2)).update(2, 50)
        assert streams.estimate_sum_grouped([1, 2]) == pytest.approx(150.0)

    def test_grouped_sum_missing_stream_contributes_zero(self):
        streams = VirtualStreams(31, s1=10, s2=3, seed=0)
        streams.sketch(streams.residue(5)).update(5, 9)
        assert streams.estimate_sum_grouped([5, 6]) == pytest.approx(9.0)

    def test_topk_trackers_per_stream(self):
        streams = VirtualStreams(31, s1=30, s2=5, seed=2, topk_size=2)
        # Every stream's tracker exists before the first value.
        trackers = [streams.tracker(r) for r in range(31)]
        assert all(
            t is not None and t.sketch is streams.sketch(r)
            for r, t in enumerate(trackers)
        )
        streams.sketch(0).update(0, 500)
        streams.tracker(0).process(0)
        assert streams.tracker(0).n_tracked == 1
        assert streams.tracker(1).n_tracked == 0

    def test_tracker_none_when_disabled(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0, topk_size=0)
        assert streams.tracker(3) is None

    def test_combined_adjustment(self):
        streams = VirtualStreams(31, s1=40, s2=5, seed=3, topk_size=1)
        value = 7
        streams.sketch(streams.residue(value)).update(value, 300)
        streams.tracker(streams.residue(value)).process(value)
        adjust = streams.combined_adjustment([value])
        assert adjust is not None
        # With compensation the view recovers the full frequency.
        view = streams.view([streams.residue(value)], [value])
        assert view.estimate(value) == pytest.approx(300.0)

    def test_combined_adjustment_none_cases(self):
        streams = VirtualStreams(31, s1=4, s2=2, seed=0, topk_size=0)
        assert streams.combined_adjustment([1, 2]) is None
