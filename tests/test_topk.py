"""Tests for top-k frequent-value tracking (Algorithm 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TopKTracker
from repro.errors import ConfigError
from repro.sketch import SketchMatrix


def loaded(counts, s1=60, s2=7, seed=0):
    matrix = SketchMatrix(s1, s2, seed=seed)
    matrix.update_counts(counts)
    return matrix


class TestAlgorithm4:
    def test_tracks_frequent_value(self):
        matrix = loaded({10: 500, 20: 3, 30: 2})
        tracker = TopKTracker(2, matrix)
        tracker.process(10)
        assert 10 in tracker.tracked
        # The delete condition: tracked frequency was deleted from sketch.
        assert abs(tracker.tracked[10] - 500) < 100

    def test_delete_condition_invariant(self):
        """After any sequence of operations, adding back every tracked
        frequency restores the original sketch counters exactly."""
        counts = {v: c for v, c in zip(range(20), [300, 200, 150] + [5] * 17)}
        matrix = loaded(counts)
        original = matrix.counters.copy()
        tracker = TopKTracker(3, matrix)
        for value in list(counts) * 2:
            tracker.process(value)
        restored = matrix.counters.copy()
        for value, freq in tracker.tracked.items():
            restored += freq * matrix.xi.xi(value)
        assert np.array_equal(restored, original)

    def test_low_frequency_value_not_tracked(self):
        matrix = loaded({10: 500, 20: 400, 30: 1})
        tracker = TopKTracker(2, matrix)
        for value in (10, 20, 30):
            tracker.process(value)
        assert 30 not in tracker.tracked

    def test_eviction_adds_back(self):
        matrix = loaded({1: 100, 2: 200, 3: 300})
        tracker = TopKTracker(1, matrix)
        tracker.process(1)
        assert set(tracker.tracked) == {1}
        tracker.process(3)  # 3 is more frequent: 1 must be evicted
        assert set(tracker.tracked) == {3}
        # After eviction, 1's occurrences are back in the sketch.
        assert abs(matrix.estimate(1) - 100) < 80

    def test_rearrival_of_tracked_value(self):
        matrix = loaded({5: 250, 6: 10})
        tracker = TopKTracker(2, matrix)
        tracker.process(5)
        first = tracker.tracked[5]
        matrix.update(5, 50)  # 50 more arrivals since tracking
        tracker.process(5)
        second = tracker.tracked[5]
        assert second >= first  # re-estimate includes the new arrivals

    def test_negative_estimate_not_tracked(self):
        matrix = SketchMatrix(10, 3, seed=1)  # empty stream
        tracker = TopKTracker(2, matrix)
        tracker.process(1234)
        assert tracker.tracked == {}

    def test_decide_transitions(self):
        """The one transition every ingest path takes, on given estimates:
        the block and round paths are checked against ``process``, which
        shares it, so its own rules are pinned here."""
        tracker = TopKTracker(2, SketchMatrix(4, 3, seed=0))
        arrivals = [  # (value, stored frequency, estimate)
            (10, 0, 5),
            (11, 0, 0),  # not positive
            (12, 0, 3),  # now full
            (13, 0, 3),  # ties the root
            (13, 0, 4),  # evicts it
            # A re-arrival is untracked first, so it never evicts, even
            # below the root's frequency.
            (10, 5, 2),
            (13, 4, -1),
        ]
        with tracker._lock:  # asserted outside: the tracker's repr locks
            decided = [tracker._decide(*arrival) for arrival in arrivals]
        assert decided == [
            (5, None), (0, None), (3, None), (0, None), (4, (12, 3)),
            (2, None), (0, None),
        ]
        assert tracker.tracked == {10: 2}
        assert (tracker.n_evictions, tracker.n_rearrivals) == (1, 2)

    def test_size_validation(self):
        with pytest.raises(ConfigError):
            TopKTracker(0, SketchMatrix(4, 2, seed=0))

    def test_memory_accounting(self):
        tracker = TopKTracker(50, SketchMatrix(4, 2, seed=0))
        assert tracker.memory_bytes() == 50 * 16

    def test_deleted_self_join_mass(self):
        matrix = loaded({1: 300, 2: 5})
        tracker = TopKTracker(1, matrix)
        tracker.process(1)
        mass = tracker.deleted_self_join_mass()
        assert mass == tracker.tracked[1] ** 2


class TestDeleteConditionProperty:
    """Hypothesis-driven check of the Algorithm 4 invariant."""

    @given(
        st.lists(
            st.tuples(st.integers(0, 15), st.integers(1, 50)),
            min_size=1,
            max_size=25,
        ),
        st.lists(st.integers(0, 15), max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_random_operation_sequences(self, counts, ops):
        """Whatever interleaving of arrivals Algorithm 4 sees, adding the
        tracked frequencies back must restore the pre-tracking counters
        exactly — the delete condition of Section 5.2."""
        matrix = SketchMatrix(20, 3, seed=1)
        table: dict[int, int] = {}
        for value, count in counts:
            table[value] = table.get(value, 0) + count
        matrix.update_counts(table)
        original = matrix.counters.copy()
        tracker = TopKTracker(3, matrix)
        for value in ops:
            tracker.process(value)
        restored = matrix.counters.copy()
        for value, freq in tracker.tracked.items():
            restored += freq * matrix.xi.xi(value)
        assert np.array_equal(restored, original)
        # And the tracker never holds more than its capacity.
        assert tracker.n_tracked <= 3


class TestAdjustment:
    def test_adjustment_compensates_deletion(self):
        matrix = loaded({10: 400, 20: 7})
        tracker = TopKTracker(1, matrix)
        tracker.process(10)
        bare = matrix.estimate(10)
        compensated = matrix.estimate(10, adjust=tracker.adjustment([10]))
        assert abs(compensated - 400) < abs(bare - 400) + 1e-9
        assert abs(compensated - 400) < 100

    def test_adjustment_none_when_untracked(self):
        matrix = loaded({10: 400})
        tracker = TopKTracker(1, matrix)
        tracker.process(10)
        assert tracker.adjustment([99]) is None

    def test_adjustment_sums_tracked_values(self):
        matrix = loaded({1: 300, 2: 200, 3: 1})
        tracker = TopKTracker(2, matrix)
        tracker.process(1)
        tracker.process(2)
        adjust = tracker.adjustment([1, 2, 3])
        expected = tracker.tracked[1] * matrix.xi.xi(1) + tracker.tracked[
            2
        ] * matrix.xi.xi(2)
        assert np.array_equal(adjust, expected)

    def test_adjustment_ignores_duplicates(self):
        matrix = loaded({1: 300})
        tracker = TopKTracker(1, matrix)
        tracker.process(1)
        a = tracker.adjustment([1])
        b = tracker.adjustment([1, 1, 1])
        assert np.array_equal(a, b)


class TestBulkBuild:
    def test_finds_true_heavy_hitters(self):
        counts = {v: 2 for v in range(200)}
        heavy = {1000: 900, 1001: 800, 1002: 700}
        counts.update(heavy)
        matrix = loaded(counts, s1=80)
        tracker = TopKTracker(3, matrix)
        tracker.bulk_build(list(counts))
        assert set(tracker.tracked) == set(heavy)

    def test_reduces_residual_self_join(self):
        counts = {v: 2 for v in range(100)}
        counts[999] = 500
        matrix = loaded(counts, s1=80)
        before = int((matrix.counters.astype(np.int64) ** 2).mean())
        tracker = TopKTracker(1, matrix)
        tracker.bulk_build(list(counts))
        after = int((matrix.counters.astype(np.int64) ** 2).mean())
        # E[X^2] estimates the self-join size; deleting the heavy hitter
        # must reduce it drastically.
        assert after < before / 10

    def test_empty_input(self):
        tracker = TopKTracker(2, SketchMatrix(4, 2, seed=0))
        tracker.bulk_build([])
        assert tracker.tracked == {}
