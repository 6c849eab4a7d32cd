"""The fold/unfold protocol: mergeable top-k state (Section 5.2 lifted).

Algorithm 4 *folds* heavy mass out of the counters; these tests pin the
protocol that makes the folded state composable again:

* ``TopKTracker.unfold`` restores counters **bit-identical** to a
  ``topk_size=0`` run — the property the benchmark suite's
  ``round_digests`` check and `examples/serving_smoke.py` lean on;
* ``SketchTree.merge`` accepts top-k operands (unfold → sum → refold)
  without mutating them;
* windowed and sharded top-k deployments answer like a single-synopsis
  run over the same trees;
* tracker state survives the snapshot formats, per bucket and per
  shard.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SketchTree, SketchTreeConfig
from repro.core import TopKTracker, WindowedSketchTree
from repro.core.topk import fold_vector, refold
from repro.datasets.dblp import DblpGenerator
from repro.serve.service import ShardedService
from repro.sketch import SketchMatrix
from repro.trees import from_sexpr
from repro.trees.builders import from_nested
from tests.strategies import nested_trees

TOPK = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
    topk_size=3, seed=9,
)
#: Same ξ family (the seed derivation excludes topk_size), no tracking.
PLAIN = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
    topk_size=0, seed=9,
)

#: A skewed stream: one dominant pattern, a second tier, a light tail.
TREES = [
    from_sexpr(text)
    for text in ["(A (B))"] * 30 + ["(A (C))"] * 10 + ["(D (E) (F))"] * 5
]


def counters_of(synopsis: SketchTree) -> list[np.ndarray]:
    streams = synopsis.streams
    return [streams.sketch(r).counters for r in range(streams.n_streams)]


def unfold_all(synopsis: SketchTree) -> dict[int, int]:
    state: dict[int, int] = {}
    for _, tracker in list(synopsis.streams.iter_trackers()):
        state.update(tracker.unfold())
    return state


def assert_counters_equal(a: SketchTree, b: SketchTree) -> None:
    for left, right in zip(counters_of(a), counters_of(b)):
        assert np.array_equal(left, right)


class TestUnfoldBitIdentity:
    """Unfolding must be the exact inverse of Algorithm 4's deletions."""

    @given(st.lists(nested_trees(max_nodes=6), min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_unfold_restores_topk0_counters(self, forest):
        """Whatever stream the tracker saw, adding every tracked
        ``f_v · ξ(v)`` back yields the counters of a run that never
        tracked at all — int64 equality, not approximation."""
        trees = [from_nested(nested) for nested in forest]
        tracked_run = SketchTree(TOPK)
        plain_run = SketchTree(PLAIN)
        tracked_run.update_batch(trees)
        plain_run.update_batch(trees)
        unfold_all(tracked_run)
        assert_counters_equal(plain_run, tracked_run)

    def test_unfold_clears_the_tracker(self):
        synopsis = SketchTree(TOPK)
        synopsis.update_batch(TREES)
        assert synopsis.tracked()
        state = unfold_all(synopsis)
        assert state  # the folded mass was returned to the caller
        assert synopsis.tracked() == {}
        assert synopsis.deleted_self_join_mass() == 0


class TestFoldRefold:
    def test_fold_vector_is_the_manual_sum(self):
        matrix = SketchMatrix(20, 3, seed=1)
        state = {3: 5, 8: 2}
        expected = 5 * matrix.xi.xi(3) + 2 * matrix.xi.xi(8)
        assert np.array_equal(fold_vector(matrix, state), expected)

    def test_refold_reestablishes_the_delete_condition(self):
        matrix = SketchMatrix(30, 3, seed=2)
        matrix.update_counts({1: 300, 2: 200, 3: 4, 4: 2})
        tracker = TopKTracker(2, matrix)
        for value in (1, 2, 3, 4):
            tracker.process(value)
        candidates = tracker.unfold()
        linear = matrix.counters.copy()

        rebuilt = refold(matrix, candidates, 2)
        assert rebuilt.n_tracked > 0
        # Delete condition on the rebuilt tracker: its fold vector is
        # exactly what refolding removed from the linear counters.
        restored = matrix.counters + fold_vector(matrix, rebuilt.tracked)
        assert np.array_equal(restored, linear)


class TestMergeTopK:
    @staticmethod
    def halves():
        a, b = SketchTree(TOPK), SketchTree(TOPK)
        a.update_batch(TREES[:20])
        b.update_batch(TREES[20:])
        return a, b

    def test_merge_unfolds_to_single_stream_counters(self):
        a, b = self.halves()
        merged = a.merge(b)
        reference = SketchTree(PLAIN)
        reference.update_batch(TREES)
        unfold_all(merged)
        assert_counters_equal(reference, merged)

    def test_merge_does_not_mutate_operands(self):
        a, b = self.halves()
        before_counters = [c.copy() for c in counters_of(a)]
        before_tracked = a.tracked()
        a.merge(b)
        assert a.tracked() == before_tracked
        for left, right in zip(before_counters, counters_of(a)):
            assert np.array_equal(left, right)

    def test_merged_tracker_holds_the_heavy_hitters(self):
        a, b = self.halves()
        merged = a.merge(b)
        ranked = merged.tracked_patterns()
        assert ranked, "merge over a skewed stream must refold trackers"
        # The dominant value's whole-stream weight, re-estimated against
        # the merged (whole-stream) counters, tops the list.  (The merged
        # synopsis' encoder is fresh, so names resolve via the operands'
        # encoders — exactly what the serving tier's /admin/topk does.)
        assert ranked[0]["frequency"] >= 30
        heavy = {
            a.encoder.encode(("A", ())),
            a.encoder.encode(("A", (("B", ()),))),
        }
        assert ranked[0]["value"] in heavy

    def test_merged_interval_covers_the_exact_count(self):
        a, b = self.halves()
        merged = a.merge(b)
        interval = merged.estimate_ordered_interval("(A (B))", confidence=0.9)
        assert interval.low <= 30 <= interval.high


class TestNaryMerge:
    """``a.merge(b, c)`` composes every operand's top-k state at once."""

    def test_one_refold_over_the_union_of_tracked_values(self):
        """Per stream, the merged tracker is one refold over the union of
        the three operands' tracked values, taken on their summed counters
        with every operand's tracked frequencies added back; unfolded,
        those counters are one synopsis' over all the trees."""
        trees = list(DblpGenerator(seed=5).generate(60))
        parts = [SketchTree(TOPK) for _ in range(3)]
        for index, part in enumerate(parts):
            part.update_batch(trees[index::3])
        merged = parts[0].merge(*parts[1:])
        plain = SketchTree(PLAIN)
        plain.update_batch(trees)
        union: dict[int, dict[int, int]] = {}
        for part in parts:
            for residue, tracker in part.streams.iter_trackers():
                state = union.setdefault(residue, {})
                for value, freq in tracker.tracked.items():
                    state[value] = state.get(value, 0) + freq
        assert sum(map(len, union.values())) > TOPK.topk_size
        for residue in range(TOPK.n_virtual_streams):
            sketch = SketchMatrix(TOPK.s1, TOPK.s2, xi=merged.streams.xi)
            for part in parts:
                own = part.streams.sketch(residue)
                if own is not None:
                    sketch.counters += own.counters
            state = union.get(residue, {})
            if state:
                sketch.counters += fold_vector(sketch, state)
            assert np.array_equal(
                sketch.counters, plain.streams.sketch(residue).counters
            )
            expected = refold(sketch, state, TOPK.topk_size).tracked
            tracker = merged.streams.tracker(residue)
            assert (tracker.tracked if tracker is not None else {}) == expected
            assert np.array_equal(
                merged.streams.sketch(residue).counters, sketch.counters
            )
        assert merged.n_trees == len(trees)
        unfold_all(merged)
        assert_counters_equal(plain, merged)


class TestShardedTopK:
    def test_sharded_merge_equals_single_synopsis_run(self):
        service = ShardedService(TOPK, n_shards=3)
        service.start()
        try:
            for start in range(0, len(TREES), 5):
                service.submit(TREES[start : start + 5])
            merged = service.merged_synopsis()
        finally:
            service.stop()

        single = SketchTree(TOPK)
        single.update_batch(TREES)
        # Estimator-level agreement within the two runs' own Chebyshev
        # half-widths: both re-estimate against whole-stream counters
        # that are (once unfolded) bit-identical.
        for query in ("(A (B))", "(A (C))", "(D (E))"):
            ours = merged.estimate_ordered_interval(query, confidence=0.9)
            reference = single.estimate_ordered_interval(query, confidence=0.9)
            assert abs(ours.estimate - reference.estimate) <= (
                ours.half_width + reference.half_width + 1e-9
            )
        # And counter-level bit-identity once both are unfolded.
        unfold_all(merged)
        unfold_all(single)
        assert_counters_equal(single, merged)

    def test_service_topk_report(self):
        service = ShardedService(TOPK, n_shards=2)
        service.start()
        try:
            service.submit(TREES)
            report = service.topk(limit=3)
        finally:
            service.stop()
        assert report["merged"] is True
        assert report["n_trees"] == len(TREES)
        frequencies = [entry["frequency"] for entry in report["patterns"]]
        assert frequencies == sorted(frequencies, reverse=True)
        assert report["patterns"][0]["pattern"] is not None

    def test_service_window_topk_report(self):
        service = ShardedService(
            TOPK, n_shards=2, window_trees=8, bucket_trees=4
        )
        service.start()
        try:
            service.submit(TREES)
            service.drain()
            report = service.window_topk(limit=4)
        finally:
            service.stop()
        assert report["window_trees"] == 8
        assert 0 < report["trees_covered"] <= len(TREES)
        assert report["patterns"]


class TestWindowedTopK:
    @staticmethod
    def window(window_trees=12, bucket_trees=4):
        window = WindowedSketchTree(
            TOPK, window_trees=window_trees, bucket_trees=bucket_trees
        )
        window.ingest(TREES)
        return window

    def test_merge_on_expiry_refolds(self):
        window = self.window()
        assert window.n_refolds > 0
        assert window.n_refold_candidates >= window.n_refolds

    def test_window_estimates_match_single_synopsis_run(self):
        """A top-k window answers like one top-k synopsis fed exactly the
        window's live trees — within both runs' Chebyshev half-widths."""
        window = self.window()
        live = TREES[-window.window_size_actual :]
        reference = SketchTree(TOPK)
        reference.update_batch(live)
        for query in ("(A (B))", "(A (C))", "(D (F))"):
            ours = window.estimate_ordered_interval(query, confidence=0.9)
            single = reference.estimate_ordered_interval(query, confidence=0.9)
            assert abs(ours.estimate - single.estimate) <= (
                ours.half_width + single.half_width + 1e-9
            )

    def test_tracked_state_follows_expiry(self):
        """Once the heavy prefix leaves the window, the live tracked set
        reflects the window's trees, not the whole stream's."""
        window = WindowedSketchTree(TOPK, window_trees=8, bucket_trees=4)
        window.ingest([from_sexpr("(A (B))")] * 40)
        window.ingest([from_sexpr("(L (M))")] * 40)
        tracked = window.tracked()
        assert tracked
        # Every live bucket saw only (L (M)) trees; the expired (A (B))
        # mass is gone from the window's tracked state entirely.
        patterns = [entry["pattern"] for entry in window.tracked_patterns()]
        assert all("A" not in str(pattern) for pattern in patterns if pattern)
        assert window.deleted_self_join_mass() > 0

    def test_memory_report_counts_per_bucket_tracker_bytes(self):
        with_topk = self.window()
        without = WindowedSketchTree(PLAIN, window_trees=12, bucket_trees=4)
        without.ingest(TREES)
        assert without.memory_report().provisioned_topk_bytes == 0
        report = with_topk.memory_report()
        assert report.provisioned_topk_bytes == sum(
            bucket.memory_report().provisioned_topk_bytes
            for bucket in with_topk._live_buckets()
        )
        assert report.provisioned_topk_bytes > 0


class TestTrackerSnapshots:
    def test_window_round_trip_preserves_per_bucket_trackers(self):
        window = WindowedSketchTree(TOPK, window_trees=12, bucket_trees=4)
        window.ingest(TREES)
        restored = WindowedSketchTree.from_bytes(window.to_bytes())
        assert restored.tracked() == window.tracked()
        for ours, theirs in zip(
            window._live_buckets(), restored._live_buckets()
        ):
            assert ours.tracked() == theirs.tracked()
        # The restored window *continues* identically: the tracker side
        # of the delete condition was rebuilt, not just displayed.
        more = [from_sexpr("(A (B))")] * 10
        window.ingest(more)
        restored.ingest(more)
        assert restored.tracked() == window.tracked()
        assert restored.estimate_ordered("(A (B))") == window.estimate_ordered(
            "(A (B))"
        )

    def test_service_resume_restores_per_shard_trackers(self, tmp_path):
        first = ShardedService(
            TOPK, n_shards=2, checkpoint_dir=tmp_path / "ck"
        )
        first.start()
        first.submit(TREES)
        first.drain()
        before = [shard.synopsis.tracked() for shard in first.shards]
        assert any(before)
        first.snapshot()
        first.stop()

        second = ShardedService(
            TOPK, n_shards=2, checkpoint_dir=tmp_path / "ck", resume=True
        )
        after = [shard.synopsis.tracked() for shard in second.shards]
        assert after == before
        second.start()
        try:
            merged = second.merged_synopsis()
        finally:
            second.stop()
        reference = SketchTree(TOPK)
        reference.update_batch(TREES)
        unfold_all(merged)
        unfold_all(reference)
        assert_counters_equal(reference, merged)
