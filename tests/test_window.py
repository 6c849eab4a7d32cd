"""Tests for sliding-window pattern counting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SketchTreeConfig, WindowedSketchTree
from repro.errors import ConfigError
from repro.trees import from_sexpr

from .estimate_kinds import CONFIG as KINDS_CONFIG
from .estimate_kinds import KINDS
from .estimate_kinds import STREAM as KINDS_STREAM

CONFIG = SketchTreeConfig(
    s1=50, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=6
)

EARLY = from_sexpr("(E (E1))")
LATE = from_sexpr("(L (L1))")


class TestConstruction:
    def test_accepts_topk(self):
        """Fold/unfold (merge-on-expiry) lifts the old topk_size ban; the
        tracker semantics live in tests/test_topk_merge.py."""
        config = SketchTreeConfig(
            s1=10, s2=3, n_virtual_streams=31, topk_size=2, seed=6
        )
        window = WindowedSketchTree(config, window_trees=10, bucket_trees=5)
        window.ingest([EARLY] * 20)
        assert window.n_trees == 20

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            WindowedSketchTree(CONFIG, window_trees=0)
        with pytest.raises(ConfigError):
            WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=20)

    def test_default_bucket_size(self):
        window = WindowedSketchTree(CONFIG, window_trees=80)
        assert window.bucket_trees == 10
        assert window.n_buckets == 8


class TestWindowSemantics:
    def test_old_trees_expire(self):
        window = WindowedSketchTree(CONFIG, window_trees=20, bucket_trees=5)
        window.ingest([EARLY] * 20)   # fills the window with E
        window.ingest([LATE] * 40)    # pushes E entirely out
        assert window.estimate_ordered("(E (E1))") == pytest.approx(0.0, abs=3)
        covered = window.window_size_actual
        assert window.estimate_ordered("(L (L1))") == pytest.approx(
            covered, abs=5
        )

    def test_window_size_bounds(self):
        window = WindowedSketchTree(CONFIG, window_trees=20, bucket_trees=5)
        window.ingest([EARLY] * 100)
        # Covered trees stay within [window, window + bucket).
        assert 20 <= window.window_size_actual < 25

    def test_before_window_fills_counts_everything(self):
        window = WindowedSketchTree(CONFIG, window_trees=50, bucket_trees=10)
        window.ingest([EARLY] * 7)
        assert window.window_size_actual == 7
        assert window.estimate_ordered("(E (E1))") == pytest.approx(7, abs=3)

    def test_bucket_count_bounded(self):
        window = WindowedSketchTree(CONFIG, window_trees=20, bucket_trees=5)
        window.ingest([EARLY] * 500)
        assert window.n_live_buckets <= window.n_buckets + 1

    def test_mixed_window(self):
        window = WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=5)
        window.ingest([EARLY] * 10 + [LATE] * 5)
        # The last 15 trees covered are at most 10 E + 5 L; E is expiring.
        early = window.estimate_ordered("(E (E1))")
        late = window.estimate_ordered("(L (L1))")
        assert late == pytest.approx(5, abs=3)
        assert early <= 10 + 3

    def test_unordered_and_sum(self):
        window = WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=2)
        window.ingest([from_sexpr("(A (C) (B))")] * 8)
        assert window.estimate_unordered("(A (B) (C))") == pytest.approx(
            8, abs=4
        )
        total = window.estimate_sum(["(A (B))", "(A (C))"])
        assert total == pytest.approx(16, abs=6)

    def test_memory_report_scales_with_buckets(self):
        small = WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=5)
        large = WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=1)
        small.ingest([EARLY] * 10)
        large.ingest([EARLY] * 10)
        assert (
            large.memory_report().provisioned_sketch_bytes
            > small.memory_report().provisioned_sketch_bytes
        )

    def test_repr(self):
        window = WindowedSketchTree(CONFIG, window_trees=10, bucket_trees=5)
        assert "WindowedSketchTree" in repr(window)


class TestUpdateBatch:
    """``update_batch`` must respect bucket boundaries bit-identically.

    A batch that straddles a bucket boundary has to be cut so each
    bucket's synopsis receives exactly the trees the per-tree loop would
    have given it — otherwise rotation happens at the wrong tree and the
    window covers the wrong suffix of the stream.
    """

    TREES = [
        from_sexpr(text)
        for text in ["(E (E1))", "(L (L1))", "(A (B) (C))", "(A (B (C)))"] * 5
    ]

    @staticmethod
    def bucket_states(window):
        """Per-live-bucket sketch counters, oldest bucket first."""
        return [
            {
                residue: matrix.counters.copy()
                for residue, matrix in bucket.streams.iter_sketches()
            }
            for bucket in window._live_buckets()
        ]

    def assert_same_window_state(self, a, b):
        assert a.n_trees_seen == b.n_trees_seen
        assert a.n_live_buckets == b.n_live_buckets
        left, right = self.bucket_states(a), self.bucket_states(b)
        assert len(left) == len(right)
        for bucket_a, bucket_b in zip(left, right):
            assert bucket_a.keys() == bucket_b.keys()
            for residue, counters in bucket_a.items():
                assert np.array_equal(counters, bucket_b[residue])

    def test_single_batch_across_boundaries(self):
        per_tree = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
        batched = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
        for tree in self.TREES:
            per_tree.update(tree)
        batched.update_batch(self.TREES)  # spans four full rotations
        self.assert_same_window_state(per_tree, batched)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
    def test_any_chunking_bit_identical(self, chunk_sizes):
        per_tree = WindowedSketchTree(CONFIG, window_trees=6, bucket_trees=3)
        batched = WindowedSketchTree(CONFIG, window_trees=6, bucket_trees=3)
        position = 0
        for size in chunk_sizes:
            chunk = self.TREES[position : position + size]
            position += len(chunk)
            for tree in chunk:
                per_tree.update(tree)
            batched.update_batch(chunk)
        self.assert_same_window_state(per_tree, batched)
        for query in ["(E (E1))", "(A (B))"]:
            assert per_tree.estimate_ordered(query) == batched.estimate_ordered(
                query
            )

    def test_ingest_chunks_through_update_batch(self):
        looped = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
        ingested = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
        for tree in self.TREES:
            looped.update(tree)
        ingested.ingest(self.TREES, batch_trees=7)
        self.assert_same_window_state(looped, ingested)

    def test_ingest_rejects_bad_batch_trees(self):
        window = WindowedSketchTree(CONFIG, window_trees=8, bucket_trees=4)
        with pytest.raises(ConfigError):
            window.ingest(self.TREES, batch_trees=0)

    def test_stream_processor_batches_into_window(self):
        per_tree = WindowedSketchTree(CONFIG, window_trees=6, bucket_trees=3)
        batched = WindowedSketchTree(CONFIG, window_trees=6, bucket_trees=3)
        for tree in self.TREES:
            per_tree.update(tree)
        from repro.stream import StreamProcessor

        StreamProcessor([batched], batch_trees=5).run(self.TREES)
        self.assert_same_window_state(per_tree, batched)


class TestReadPathParity:
    """The window must answer every read the synopsis answers.

    The reference for each query method is the ``merged()`` synopsis —
    by linearity, bit-identical to a single :class:`SketchTree` fed the
    window's live trees — so these pin both *presence* of the delegated
    methods and exact agreement with whole-stream semantics.
    """

    TREES = [
        from_sexpr(text)
        for text in ["(A (B) (C))", "(A (B (C)))", "(E (E1))", "(A (C))"] * 4
    ]

    @staticmethod
    def window(bucket_trees=3):
        window = WindowedSketchTree(
            CONFIG, window_trees=9, bucket_trees=bucket_trees
        )
        window.ingest(TestReadPathParity.TREES)
        return window

    def test_estimate_sum_accepts_a_generator(self):
        """Regression: a generator argument must count in *every* live
        bucket, not just the first (which would silently undercount)."""
        window = self.window()
        assert window.n_live_buckets > 1  # the bug needs several buckets
        queries = ["(A (B))", "(A (C))"]
        from_list = window.estimate_sum(queries)
        from_generator = window.estimate_sum(q for q in queries)
        assert from_generator == from_list
        assert from_list != 0.0

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_matches_merged(self, kind):
        """Summed bucket counters are the merged synopsis' counters, so
        every kind answers bit-identically (``topk_size=0``)."""
        window = WindowedSketchTree(
            KINDS_CONFIG, window_trees=40, bucket_trees=10
        )
        window.ingest([from_sexpr(text) for text in KINDS_STREAM])
        assert window.n_live_buckets > 1
        assert KINDS[kind](window) == KINDS[kind](window.merged())

    def test_estimate_sum_generator_matches_merged(self):
        window = self.window()
        queries = ["(A (B))", "(E (E1))"]
        expected = window.merged().estimate_sum(queries)
        assert window.estimate_sum(iter(queries)) == expected

    def test_self_join_size_matches_merged_synopsis(self):
        """Summed-counter SJ, not sum of per-bucket SJs: frequencies add
        across buckets and SJ is quadratic in them."""
        window = self.window()
        merged = window.merged()
        assert window.estimate_self_join_size() == pytest.approx(
            merged.estimate_self_join_size()
        )
        per_bucket = sum(
            b.estimate_self_join_size() for b in window._live_buckets()
        )
        # With the same tree repeated across buckets the per-bucket sum
        # is a strict undercount of the true combined quantity.
        assert per_bucket < merged.estimate_self_join_size()

    def test_ordered_interval_matches_merged_synopsis(self):
        window = self.window()
        merged = window.merged()
        ours = window.estimate_ordered_interval("(A (B))", confidence=0.95)
        reference = merged.estimate_ordered_interval("(A (B))", confidence=0.95)
        assert ours.estimate == reference.estimate
        assert ours.half_width == reference.half_width
        assert ours.confidence == reference.confidence

    def test_ordered_interval_unallocated_stream_is_exact_zero(self):
        window = WindowedSketchTree(CONFIG, window_trees=9, bucket_trees=3)
        interval = window.estimate_ordered_interval("(A (B))")
        assert interval.estimate == 0.0
        assert interval.half_width == 0.0

    def test_merged_is_bit_identical_to_single_synopsis(self):
        from repro.core import SketchTree

        window = self.window(bucket_trees=4)
        live_trees = self.TREES[-window.window_size_actual :]
        reference = SketchTree(CONFIG)
        reference.update_batch(live_trees)
        merged = window.merged()
        for query in ["(A (B))", "(A (C))", "(E (E1))"]:
            assert merged.estimate_ordered(query) == reference.estimate_ordered(
                query
            )


class TestPairingWindow:
    """Pairing numbers labels in first-seen order per encoder, so a
    window's buckets share one encoder: otherwise a bucket that first
    saw other labels would encode the same pattern differently."""

    CONFIG = SketchTreeConfig(
        s1=30, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=3,
        mapping="pairing",
    )

    def test_every_read_gives_one_answer(self):
        window = WindowedSketchTree(self.CONFIG, window_trees=40, bucket_trees=20)
        window.ingest([from_sexpr("(A (B))")] * 20 + [from_sexpr("(X (Y))")] * 20)
        assert window.n_live_buckets == 2
        for query in ["(X (Y))", "(A (B))", "(Y (Z))"]:
            ordered = window.estimate_ordered(query)
            assert ordered == window.estimate_ordered_interval(query).estimate
            assert ordered == window.merged().estimate_ordered(query)
        assert window.estimate_ordered("(X (Y))") == pytest.approx(20, abs=2)

    def test_buckets_share_one_encoder_across_rotations_and_restore(self):
        window = WindowedSketchTree(self.CONFIG, window_trees=4, bucket_trees=2)
        window.ingest([from_sexpr("(A (B))")] * 9)
        restored = WindowedSketchTree.from_bytes(window.to_bytes())
        for w in (window, restored):
            buckets = w._live_buckets()
            assert len(buckets) > 1
            assert all(b.encoder is buckets[0].encoder for b in buckets)
