"""Tests for self-join estimation, error bars, and adaptive sizing."""

import numpy as np
import pytest

from repro import SketchTree, SketchTreeConfig
from repro.core import chebyshev_half_width, recommend_config
from repro.errors import ConfigError
from repro.sketch import SketchMatrix
from repro.trees import from_sexpr


class TestSelfJoinEstimation:
    def test_f2_estimator_recovers_self_join(self):
        counts = {v: c for v, c in zip(range(50), [40, 30, 20] + [3] * 47)}
        true_sj = sum(c * c for c in counts.values())
        matrix = SketchMatrix(120, 7, seed=2)
        matrix.update_counts(counts)
        estimate = matrix.estimate_self_join_size()
        assert estimate == pytest.approx(true_sj, rel=0.3)

    def test_f2_unbiased_over_draws(self):
        counts = {1: 10, 2: 6, 3: 3}
        true_sj = sum(c * c for c in counts.values())
        estimates = []
        for seed in range(300):
            matrix = SketchMatrix(1, 1, seed=seed)
            matrix.update_counts(counts)
            estimates.append(matrix.estimate_self_join_size())
        assert np.mean(estimates) == pytest.approx(true_sj, rel=0.15)

    def test_sketchtree_residual_self_join(self):
        # With top-k deleting the heavy value, the residual self-join
        # reported by the synopsis must collapse.
        heavy = from_sexpr("(H (X))")
        rare = from_sexpr("(R (Y))")
        trees = [heavy] * 200 + [rare] * 4
        base = dict(s1=60, s2=7, max_pattern_edges=1, n_virtual_streams=1, seed=3)
        plain = SketchTree(SketchTreeConfig(**base)).ingest(trees)
        pruned = SketchTree(SketchTreeConfig(**base, topk_size=1)).ingest(trees)
        assert pruned.estimate_self_join_size() < 0.2 * plain.estimate_self_join_size()

    def test_empty_synopsis_zero(self):
        synopsis = SketchTree(
            SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31)
        )
        assert synopsis.estimate_self_join_size() == 0.0


class TestChebyshevBars:
    def test_half_width_formula(self):
        # a = sqrt(SJ / (s1 * gamma))
        assert chebyshev_half_width(1000, 10, confidence=0.9) == pytest.approx(
            (1000 / (10 * 0.1)) ** 0.5
        )

    def test_half_width_shrinks_with_s1(self):
        assert chebyshev_half_width(100, 100) < chebyshev_half_width(100, 10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            chebyshev_half_width(10, 0)
        with pytest.raises(ConfigError):
            chebyshev_half_width(10, 5, confidence=1.5)
        with pytest.raises(ConfigError):
            chebyshev_half_width(-1, 5)

    def test_interval_contains_truth_typically(self):
        # Conservative bars: over independent draws the 80%-interval
        # must cover the true count at >= its nominal rate.
        trees = [from_sexpr("(A (B) (C))")] * 30 + [from_sexpr("(A (D))")] * 10
        covered = 0
        runs = 20
        for seed in range(runs):
            config = SketchTreeConfig(
                s1=30, s2=5, max_pattern_edges=2, n_virtual_streams=31,
                seed=seed,
            )
            synopsis = SketchTree(config).ingest(trees)
            interval = synopsis.estimate_ordered_interval(
                "(A (D))", confidence=0.8
            )
            if 10 in interval:
                covered += 1
        assert covered >= int(0.8 * runs)

    def test_interval_for_empty_stream(self):
        synopsis = SketchTree(
            SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31)
        )
        interval = synopsis.estimate_ordered_interval("(A (B))")
        assert interval.estimate == 0.0
        assert interval.half_width == 0.0

    @pytest.mark.parametrize("confidence", [0.0, 1.5])
    def test_out_of_range_confidence_raises_on_every_path(self, confidence):
        """An empty synopsis, a window and a two-shard view all check
        ``confidence``, though the query's stream holds no value."""
        from repro.core import CounterView, WindowedSketchTree

        config = SketchTreeConfig(s1=10, s2=3, n_virtual_streams=31)
        first = SketchTree(config)
        readers = [
            first,
            WindowedSketchTree(config, window_trees=4, bucket_trees=2),
            CounterView((first, first.empty_like())),
        ]
        for reader in readers:
            with pytest.raises(ConfigError, match="confidence"):
                reader.estimate_ordered_interval("(A (B))", confidence=confidence)

    def test_interval_repr_and_bounds(self):
        from repro.core import Interval

        interval = Interval(100.0, 20.0, 0.9, 5000.0)
        assert interval.low == 80.0
        assert interval.high == 120.0
        assert 100.0 in interval
        assert 200.0 not in interval
        assert "±" in repr(interval)


class TestRecommendConfig:
    def test_matches_theorem1(self):
        rec = recommend_config(
            self_join_size=1e6, frequency=100, epsilon=0.1, delta=0.1
        )
        from repro.sketch import s1_for_point_query, s2_for_confidence

        assert rec.s1 == s1_for_point_query(1e6, 100, 0.1)
        assert rec.s2 == s2_for_confidence(0.1)

    def test_memory_scales_with_streams(self):
        small = recommend_config(1e6, 100, 0.1, 0.1, n_virtual_streams=31)
        large = recommend_config(1e6, 100, 0.1, 0.1, n_virtual_streams=229)
        assert large.sketch_bytes > small.sketch_bytes

    def test_sum_query_sizing(self):
        rec = recommend_config(
            1e6, 300, 0.1, 0.1, n_patterns=3
        )
        from repro.sketch import s1_for_sum_query

        assert rec.s1 == s1_for_sum_query(1e6, 300, 3, 0.1)

    def test_end_to_end_sizing_meets_target(self):
        """Size a synopsis from a pilot's self-reported SJ; the resulting
        estimate must land within the requested epsilon (checked at the
        median over draws, the quantity the theorem controls)."""
        trees = [from_sexpr("(A (B) (C))")] * 60 + [
            from_sexpr(f"(A (L{i}))") for i in range(30)
        ]
        pilot = SketchTree(
            SketchTreeConfig(s1=40, s2=5, max_pattern_edges=2,
                             n_virtual_streams=1, seed=0)
        ).ingest(trees)
        sj = pilot.estimate_self_join_size()
        rec = recommend_config(sj, frequency=60, epsilon=0.25, delta=0.25,
                               n_virtual_streams=1)
        errors = []
        for seed in range(7):
            config = SketchTreeConfig(
                s1=rec.s1, s2=rec.s2, max_pattern_edges=2,
                n_virtual_streams=1, seed=100 + seed,
            )
            synopsis = SketchTree(config).ingest(trees)
            estimate = synopsis.estimate_ordered("(A (B) (C))")
            errors.append(abs(estimate - 60) / 60)
        assert sorted(errors)[len(errors) // 2] <= 0.25
