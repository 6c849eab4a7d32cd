"""Tests for the columnar batch pipeline.

The refactor's contract is *bit-identity*: every batched ingest path
must leave the synopsis in exactly the state the per-tree, per-value
loop would have — same counters, same top-k tracker contents, same
bookkeeping.  These tests pin that contract with hypothesis-generated
forests plus targeted unit tests for each new layer
(:class:`EncodedBatch`, vectorised Rabin, batched encoding, grouped
routing, the stream engine's micro-batching).
"""

import math
import os
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.encoding as encoding_module
import repro.core.sketchtree as sketchtree_module
import repro.enumtree.enumerate as enumerate_module
import repro.hashing.labels as labels_module
import repro.sketch.bch as bch_module
from repro import SketchTree, SketchTreeConfig
from repro.core import EncodedBatch, PatternEncoder
from repro.core.batch import FieldReducer
from repro.core.topk import EXACT_SUM_LIMIT, TopKTracker
from repro.core.window import WindowedSketchTree
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.enumtree import (
    collect_forest_patterns,
    enumerate_patterns,
    iter_pattern_multiset,
)
from repro.errors import ConfigError
from repro.hashing.pairing import pair_sequence, pair_sequences
from repro.hashing.rabin import RabinFingerprint
from repro.stream import StreamProcessor
from repro.trees import from_sexpr
from repro.trees.builders import from_nested

from .strategies import nested_trees


def small_config(**overrides) -> SketchTreeConfig:
    defaults = dict(
        s1=8, s2=3, max_pattern_edges=3, n_virtual_streams=13, seed=5
    )
    defaults.update(overrides)
    return SketchTreeConfig(**defaults)


def synopsis_state(st_: SketchTree):
    """Everything the bit-identity contract covers, comparably."""
    counters = {
        residue: matrix.counters.copy()
        for residue, matrix in st_.streams.iter_sketches()
    }
    trackers = {
        residue: tracker.snapshot()
        for residue, tracker in st_.streams.iter_trackers()
    }
    return counters, trackers, st_.n_trees, st_.n_values


def assert_same_state(a: SketchTree, b: SketchTree) -> None:
    counters_a, trackers_a, trees_a, values_a = synopsis_state(a)
    counters_b, trackers_b, trees_b, values_b = synopsis_state(b)
    assert trees_a == trees_b
    assert values_a == values_b
    assert counters_a.keys() == counters_b.keys()
    for residue in counters_a:
        np.testing.assert_array_equal(counters_a[residue], counters_b[residue])
    assert trackers_a == trackers_b


forests = st.lists(nested_trees(max_nodes=6), min_size=1, max_size=6).map(
    lambda nested: [from_nested(n) for n in nested]
)


class TestIngestPathEquivalence:
    """All streaming ingest paths are bit-identical to the per-tree loop."""

    @given(forests)
    @settings(max_examples=25, deadline=None)
    def test_update_batch_matches_update_loop(self, trees):
        config = small_config(topk_size=2, topk_probability=0.5)
        loop, batched = SketchTree(config), SketchTree(config)
        for tree in trees:
            loop.update(tree)
        batched.update_batch(trees)
        assert_same_state(loop, batched)

    @given(forests)
    @settings(max_examples=15, deadline=None)
    def test_stream_processor_micro_batching(self, trees):
        config = small_config(topk_size=2, topk_probability=0.5)
        loop, batched = SketchTree(config), SketchTree(config)
        StreamProcessor([loop]).run(trees)
        StreamProcessor([batched], batch_trees=3).run(trees)
        assert_same_state(loop, batched)

    @given(forests)
    @settings(max_examples=15, deadline=None)
    def test_ingest_matches_update_loop(self, trees):
        config = small_config(topk_size=2, topk_probability=0.5)
        loop, ingested = SketchTree(config), SketchTree(config)
        for tree in trees:
            loop.update(tree)
        ingested.ingest(trees, batch_trees=2)
        assert_same_state(loop, ingested)

    @given(forests)
    @settings(max_examples=15, deadline=None)
    def test_update_from_patterns_matches_update(self, trees):
        config = small_config(topk_size=2, topk_probability=0.5)
        direct, via_patterns = SketchTree(config), SketchTree(config)
        k = config.max_pattern_edges
        for tree in trees:
            direct.update(tree)
            via_patterns.update_from_patterns(enumerate_patterns(tree, k))
        counters_a, _, trees_a, values_a = synopsis_state(direct)
        counters_b, _, trees_b, values_b = synopsis_state(via_patterns)
        assert (trees_a, values_a) == (trees_b, values_b)
        assert counters_a.keys() == counters_b.keys()
        for residue in counters_a:
            np.testing.assert_array_equal(
                counters_a[residue], counters_b[residue]
            )

    @given(forests)
    @settings(max_examples=15, deadline=None)
    def test_ingest_counts_matches_stream(self, trees):
        # Counters only: ingest_counts' top-k emulation is deliberately
        # not a replay (bulk_build), so compare with tracking disabled.
        config = small_config(topk_size=0)
        streamed, bulk = SketchTree(config), SketchTree(config)
        counts: dict = {}
        k = config.max_pattern_edges
        for tree in trees:
            streamed.update(tree)
            for pattern in enumerate_patterns(tree, k):
                counts[pattern] = counts.get(pattern, 0) + 1
        bulk.ingest_counts(counts, n_trees=len(trees))
        assert_same_state(streamed, bulk)

    @given(forests)
    @settings(max_examples=15, deadline=None)
    def test_delete_then_reinsert_round_trip(self, trees):
        config = small_config()
        synopsis = SketchTree(config)
        for tree in trees:
            synopsis.update(tree)
        before, _, n_trees, n_values = synopsis_state(synopsis)
        victim = trees[0]
        synopsis.delete_tree(victim)
        synopsis.update(victim)
        after, _, n_trees_after, n_values_after = synopsis_state(synopsis)
        assert (n_trees, n_values) == (n_trees_after, n_values_after)
        for residue in before:
            np.testing.assert_array_equal(before[residue], after[residue])

    def test_delete_empties_counters(self):
        config = small_config()
        synopsis = SketchTree(config)
        tree = from_nested(("A", (("B", ()), ("C", (("A", ()),)))))
        synopsis.update(tree)
        synopsis.delete_tree(tree)
        assert synopsis.n_trees == 0
        assert synopsis.n_values == 0
        for _, matrix in synopsis.streams.iter_sketches():
            assert not matrix.counters.any()

    @pytest.mark.parametrize("generator", [DblpGenerator, TreebankGenerator])
    def test_paper_config_matches_per_value_loop(self, generator):
        # The loop ingest ran before the columnar pipeline: one encode and
        # one SketchMatrix.update per pattern occurrence, with no batch
        # code on its path.  The shipped micro-batched path must leave
        # every counter bit-identical on the paper's configuration.
        config = SketchTreeConfig(
            s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=229, seed=7
        )
        trees = list(generator(seed=8).generate(30))
        loop, batched = SketchTree(config), SketchTree(config)
        n_values = 0
        for tree in trees:
            for pattern in iter_pattern_multiset(tree, config.max_pattern_edges):
                value = loop.encoder.encode(pattern)
                loop.streams.sketch(loop.streams.residue(value)).update(value)
                n_values += 1
        StreamProcessor([batched], batch_trees=32).run(trees)
        assert batched.n_values == n_values
        expected = dict(loop.streams.iter_sketches())
        actual = dict(batched.streams.iter_sketches())
        assert expected.keys() == actual.keys()
        for residue, matrix in expected.items():
            np.testing.assert_array_equal(matrix.counters, actual[residue].counters)


class TestEncodedBatch:
    class _IdentityReducer:
        def to_field(self, values, count=-1):
            return np.fromiter((int(v) % (2**31 - 1) for v in values),
                               dtype=np.int64, count=count)

        def to_field_array(self, values):
            return np.asarray(values, dtype=np.int64) % (2**31 - 1)

    def test_build_small_values(self):
        xi = self._IdentityReducer()
        batch = EncodedBatch.build([10, 23, 10], 13, xi)
        np.testing.assert_array_equal(batch.residues, [10, 10, 10])
        np.testing.assert_array_equal(batch.counts, [1, 1, 1])
        assert len(batch) == 3
        assert batch.total_count() == 3

    def test_build_big_int_fallback_matches_fast_path(self):
        xi = self._IdentityReducer()
        small = [3, 7, 2**31]
        big = small + [2**200 + 5]  # forces the exact-Python fallback
        fast = EncodedBatch.build(small, 13, xi)
        slow = EncodedBatch.build(big, 13, xi)
        np.testing.assert_array_equal(slow.residues[:3], fast.residues)
        np.testing.assert_array_equal(slow.values[:3], fast.values)
        assert slow.residues[3] == (2**200 + 5) % 13
        assert slow.values[3] == (2**200 + 5) % (2**31 - 1)

    def test_counts_length_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            EncodedBatch.build([1, 2], 13, self._IdentityReducer(), counts=[1])

    def test_bad_tree_offsets_rejected(self):
        xi = self._IdentityReducer()
        with pytest.raises(ConfigError):
            EncodedBatch.build([1, 2, 3], 13, xi, tree_offsets=[0, 2])
        with pytest.raises(ConfigError):
            EncodedBatch.build([1, 2, 3], 13, xi, tree_offsets=[1, 3])

    def test_tree_segments(self):
        xi = self._IdentityReducer()
        batch = EncodedBatch.build(
            [1, 2, 3, 4, 5], 13, xi, tree_offsets=[0, 2, 2, 5]
        )
        assert batch.n_trees == 3
        assert list(batch.tree_segments()) == [(0, 2), (2, 2), (2, 5)]
        segment = batch.segment(2, 5)
        np.testing.assert_array_equal(segment.values, batch.values[2:5])

    def test_segments_require_offsets(self):
        batch = EncodedBatch.build([1, 2], 13, self._IdentityReducer())
        assert batch.n_trees == 0
        with pytest.raises(ConfigError):
            list(batch.tree_segments())

    def test_iter_residue_groups_preserves_arrival_order(self):
        xi = self._IdentityReducer()
        raw = [5, 18, 6, 31, 5]  # residues mod 13: 5, 5, 6, 5, 5
        batch = EncodedBatch.build(raw, 13, xi)
        groups = {r: list(idx) for r, idx in batch.iter_residue_groups()}
        assert groups == {5: [0, 1, 3, 4], 6: [2]}

    def test_iter_residue_groups_empty(self):
        batch = EncodedBatch.build([], 13, self._IdentityReducer())
        assert list(batch.iter_residue_groups()) == []


class TestVectorisedEncoding:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=2**32 - 1),
                     max_size=12),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_of_sequences_matches_of_sequence(self, sequences):
        fp = RabinFingerprint(degree=31, seed=3)
        batched = fp.of_sequences(sequences)
        scalar = [fp.of_sequence(seq) for seq in sequences]
        assert [int(v) for v in batched] == scalar

    def test_of_sequences_degree_61(self):
        fp = RabinFingerprint(degree=61, seed=1)
        sequences = [[2**32 - 1, 0, 17], [], [5]]
        assert [int(v) for v in fp.of_sequences(sequences)] == [
            fp.of_sequence(seq) for seq in sequences
        ]

    def test_pair_sequences_matches_scalar(self):
        sequences = [[1, 2, 3], [7, 7, 7, 7], [2**40, 5]]
        assert pair_sequences(sequences) == [
            pair_sequence(seq) for seq in sequences
        ]

    @given(st.lists(nested_trees(max_nodes=6), min_size=1, max_size=15))
    @settings(max_examples=25, deadline=None)
    def test_encode_batch_matches_encode(self, patterns):
        scalar_enc = PatternEncoder(seed=4)
        batch_enc = PatternEncoder(seed=4)
        assert batch_enc.encode_batch(patterns) == [
            scalar_enc.encode(p) for p in patterns
        ]

    def test_encode_batch_pairing_mode(self):
        patterns = [("A", (("B", ()),)), ("C", ()), ("A", (("B", ()),))]
        scalar_enc = PatternEncoder(mapping="pairing")
        batch_enc = PatternEncoder(mapping="pairing")
        assert batch_enc.encode_batch(patterns) == [
            scalar_enc.encode(p) for p in patterns
        ]

    def test_lru_stays_bounded_and_correct(self, monkeypatch):
        patterns = [("A", ()), ("B", ()), ("C", ()), ("D", ()), ("A", ())]
        unbounded = PatternEncoder(seed=4)
        expected = [unbounded.encode(p) for p in patterns]
        monkeypatch.setattr(encoding_module, "PATTERN_CACHE_LIMIT", 2)
        bounded = PatternEncoder(seed=4)
        values = [bounded.encode(p) for p in patterns]
        assert bounded.cache_size <= 2
        # Eviction cost recomputation, never a different value.
        assert values == expected
        assert bounded.encode_batch(patterns) == values
        assert bounded.cache_size <= 2


class TestBoundedIngestCaches:
    """Every ingest-side cache stays within its bound on a stream whose
    labels never repeat, and no flush changes a value."""

    BOUND = 16
    CONFIG = SketchTreeConfig(
        s1=8, s2=3, max_pattern_edges=2, n_virtual_streams=7,
        xi_family="bch", seed=2,
    )

    def test_caches_stay_bounded_and_values_unchanged(self, monkeypatch):
        trees = [from_sexpr(f"(r{i} (a{i}) (b{i} (c{i})))") for i in range(40)]
        unbounded = SketchTree(self.CONFIG)
        for tree in trees:
            unbounded.update(tree)
        for module, name in [
            (encoding_module, "PATTERN_CACHE_LIMIT"),
            (labels_module, "RABIN_CACHE_LIMIT"),
            (enumerate_module, "MEMO_SHAPE_LIMIT"),
            (bch_module, "CUBE_CACHE_LIMIT"),
        ]:
            monkeypatch.setattr(module, name, self.BOUND)
        bounded = SketchTree(self.CONFIG)
        memo = bounded._enum_memo
        for tree in trees:
            bounded.update(tree)
            assert bounded.encoder.cache_size <= self.BOUND
            assert bounded.encoder.label_cache_size <= self.BOUND
            # The memo flushes between trees: one tree's shapes past it.
            assert memo.n_shapes <= self.BOUND + len(tree.labels)
            assert len(bounded.streams.xi._cube_cache) <= self.BOUND
        assert memo.flushes > 0
        assert bounded.n_values == unbounded.n_values
        ours = dict(bounded.streams.iter_sketches())
        theirs = dict(unbounded.streams.iter_sketches())
        assert ours.keys() == theirs.keys()
        for residue, matrix in theirs.items():
            assert np.array_equal(ours[residue].counters, matrix.counters)
        query = "(r7 (b7 (c7)))"
        assert bounded.estimate_ordered(query) == unbounded.estimate_ordered(query)


class TestStreamProcessorBatching:
    def test_batch_trees_validated(self):
        synopsis = SketchTree(small_config())
        with pytest.raises(ConfigError):
            StreamProcessor([synopsis], batch_trees=0)
        with pytest.raises(ConfigError):
            synopsis.ingest([], batch_trees=0)

    def test_checkpoint_boundaries_preserved_under_batching(self):
        trees = list(TreebankGenerator(seed=3).generate(7))
        seen: list[tuple[int, int]] = []
        synopsis = SketchTree(small_config())
        processor = StreamProcessor(
            [synopsis],
            checkpoint_every=3,
            on_checkpoint=lambda n: seen.append((n, synopsis.n_trees)),
            batch_trees=2,
        )
        stats = processor.run(trees)
        # Fires at exactly 3 and 6 — micro-batches never straddle the
        # boundary, and the synopsis has absorbed exactly n trees when
        # the callback observes it.
        assert seen == [(3, 3), (6, 6)]
        assert stats.n_trees == 7

    def test_batched_run_matches_unbatched(self):
        trees = list(TreebankGenerator(seed=4).generate(6))
        config = small_config(topk_size=2, topk_probability=0.5)
        unbatched, batched = SketchTree(config), SketchTree(config)
        StreamProcessor([unbatched]).run(trees)
        StreamProcessor([batched], batch_trees=4).run(trees)
        assert_same_state(unbatched, batched)


class TestFieldReducerProtocol:
    def test_xi_families_satisfy_protocol(self):
        from repro.sketch.bch import BchXiGenerator
        from repro.sketch.xi import XiGenerator

        for xi in (XiGenerator(6, seed=1), BchXiGenerator(6, seed=1)):
            assert isinstance(xi, FieldReducer)
            values = np.array([0, 5, 2**31 - 1, 2**62], dtype=np.int64)
            np.testing.assert_array_equal(
                xi.to_field_array(values),
                xi.to_field((int(v) for v in values), count=len(values)),
            )


def test_collect_forest_patterns_offsets():
    trees = [from_nested(n) for n in (
        ("A", (("B", ()),)),
        ("C", ()),
    )]
    patterns, offsets = collect_forest_patterns(trees, 3)
    assert offsets[0] == 0
    assert offsets[-1] == len(patterns)
    assert len(offsets) == len(trees) + 1
    first = enumerate_patterns(trees[0], 3)
    assert patterns[: len(first)] == first


# ----------------------------------------------------------------------
# Segment-batched Algorithm 4 against the per-value reference
# ----------------------------------------------------------------------


def per_value_update(synopsis: SketchTree, trees) -> None:
    """``update_batch`` with Algorithm 4 run one ``TopKTracker.process``
    call per accepted value: the reference the block path must equal."""
    trees = list(trees)
    config = synopsis.config
    streams = synopsis.streams
    patterns, offsets = collect_forest_patterns(trees, config.max_pattern_edges)
    raw = synopsis.encoder.encode_batch(patterns)
    batch = EncodedBatch.build(
        raw, config.n_virtual_streams, streams.xi, tree_offsets=offsets
    )
    for start, stop in batch.tree_segments():
        segment = batch.segment(start, stop)
        streams.update_batch(segment)
        n = len(segment)
        if n == 0 or not config.topk_size:
            continue
        accepted = range(n)
        if config.topk_probability < 1.0:
            accepted = np.flatnonzero(
                synopsis._rng.random(n) < config.topk_probability
            )
        for i in accepted:
            streams.tracker(int(segment.residues[i])).process(segment.raw[i])
    synopsis.n_trees += len(trees)
    synopsis.n_values += len(batch)


class PerValueSketchTree(SketchTree):
    """A synopsis whose streaming ingest takes the per-value path."""

    def update_batch(self, trees) -> None:
        per_value_update(self, trees)


def full_state(synopsis: SketchTree):
    """Counter bytes, tracked maps, churn counts and the top-k RNG state."""
    counters = {
        residue: matrix.counters.tobytes()
        for residue, matrix in synopsis.streams.iter_sketches()
    }
    trackers = {
        residue: (tracker.tracked, tracker.n_evictions, tracker.n_rearrivals)
        for residue, tracker in synopsis.streams.iter_trackers()
    }
    return (
        counters,
        trackers,
        synopsis._rng.bit_generator.state,
        synopsis.n_trees,
        synopsis.n_values,
    )


block_configs = st.builds(
    small_config,
    n_virtual_streams=st.sampled_from([1, 2, 3, 7, 229]),
    topk_size=st.sampled_from([1, 2, 8]),
    s2=st.sampled_from([3, 4]),
    topk_probability=st.sampled_from([1.0, 0.6]),
    xi_family=st.sampled_from(["polynomial", "bch"]),
    mapping=st.sampled_from(["rabin", "pairing"]),
    max_pattern_edges=st.sampled_from([3, 4]),
)

long_forests = st.lists(nested_trees(max_nodes=9), min_size=1, max_size=60).map(
    lambda nested: [from_nested(n) for n in nested]
)


class TestBlockedTopK:
    """The segment-batched Algorithm 4 is bit-identical to per-value
    ``TopKTracker.process`` calls: tracked maps, churn counts, counter
    bytes and the sampling RNG state all agree."""

    @given(block_configs, long_forests, st.sampled_from([1, 17, 50]))
    @settings(max_examples=40, deadline=None)
    def test_ingest_matches_per_value_process(self, config, trees, batch_trees):
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        blocked.ingest(trees, batch_trees=batch_trees)
        reference.ingest(trees, batch_trees=batch_trees)
        assert full_state(blocked) == full_state(reference)

    @given(block_configs, long_forests, st.data())
    @settings(max_examples=20, deadline=None)
    def test_delete_tree_interleaved_with_ingest(self, config, trees, data):
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        for tree in trees:
            if data.draw(st.booleans(), label="delete"):
                victim = data.draw(st.sampled_from(trees), label="victim")
                blocked.delete_tree(victim)
                reference.delete_tree(victim)
            blocked.update(tree)
            reference.update(tree)
        assert full_state(blocked) == full_state(reference)

    @given(block_configs, long_forests, st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_window_buckets_match_per_value_process(
        self, config, trees, bucket_trees
    ):
        blocked = WindowedSketchTree(config, window_trees=10, bucket_trees=bucket_trees)
        with mock.patch("repro.core.window.SketchTree", PerValueSketchTree):
            reference = WindowedSketchTree(
                config, window_trees=10, bucket_trees=bucket_trees
            )
            reference.ingest(trees, batch_trees=7)
        blocked.ingest(trees, batch_trees=7)
        assert [full_state(b) for b in blocked._live_buckets()] == [
            full_state(b) for b in reference._live_buckets()
        ]
        assert blocked.n_refolds == reference.n_refolds

    @pytest.mark.parametrize("p", [1, 7, 229])
    def test_treebank_stream_matches_per_value_process(self, p):
        trees = list(TreebankGenerator(seed=2).generate(40))
        config = small_config(
            s1=20, s2=5, max_pattern_edges=4, n_virtual_streams=p, topk_size=4
        )
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        blocked.ingest(trees, batch_trees=17)
        reference.ingest(trees, batch_trees=17)
        assert full_state(blocked) == full_state(reference)
        assert sum(t.n_evictions for _, t in blocked.streams.iter_trackers())

    def test_tree_longer_than_a_window(self, monkeypatch):
        # A 14-child star has ~1.5k patterns: with the window and the
        # tracking run shrunk below that, the tree takes the no-block
        # path and its tracking runs in several calls.
        monkeypatch.setattr(sketchtree_module, "_WINDOW_ROWS", 64)
        monkeypatch.setattr(sketchtree_module, "_TRACK_ROWS", 100)
        star = from_nested(("R", tuple((label, ()) for label in "ABCDEABCDEABCD")))
        small = from_nested(("A", (("B", ()), ("C", ()))))
        trees = [small, star, small, star]
        config = small_config(n_virtual_streams=7, topk_size=2, max_pattern_edges=4)
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        blocked.ingest(trees, batch_trees=4)
        reference.ingest(trees, batch_trees=4)
        assert full_state(blocked) == full_state(reference)

    @pytest.mark.parametrize("magnitude", [1 << 57, (1 << 52) // 8 - 2])
    def test_large_counters_fall_back_to_per_value(self, magnitude):
        # s1 = 8: at 2^57 every block starts past the exact-sum limit;
        # just below 2^52 / s1 the first changes push it past mid-block.
        trees = list(TreebankGenerator(seed=5).generate(12))
        config = small_config(n_virtual_streams=7, topk_size=2, max_pattern_edges=4)
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        rng = np.random.default_rng(0)
        for synopsis in (blocked, reference):
            synopsis.ingest(trees[:4])
        n = config.s1 * config.s2
        for residue in range(config.n_virtual_streams):
            big = rng.integers(magnitude - 1000, magnitude, size=n)
            big *= rng.choice([-1, 1], size=n)
            for synopsis in (blocked, reference):
                synopsis.streams.counters[residue] = big
        blocked.ingest(trees[4:], batch_trees=5)
        reference.ingest(trees[4:], batch_trees=5)
        assert full_state(blocked) == full_state(reference)

    def test_one_large_stream_falls_back_beside_exact_ones(self):
        # Only stream 3 starts just below 2^52 / s1, and it tracks a value
        # of the next tree at a frequency far past that: the round the
        # value re-arrives in hands every stream to the block path, which
        # falls back to per-value ``process`` for stream 3 alone while
        # the others stay exact.
        trees = list(TreebankGenerator(seed=5).generate(12))
        config = small_config(n_virtual_streams=7, topk_size=2, max_pattern_edges=4)
        blocked, reference = SketchTree(config), PerValueSketchTree(config)
        for synopsis in (blocked, reference):
            synopsis.ingest(trees[:4])
        patterns, _ = collect_forest_patterns(trees[4:5], config.max_pattern_edges)
        heavy = next(v for v in blocked.encoder.encode_batch(patterns) if v % 7 == 3)
        magnitude = EXACT_SUM_LIMIT // config.s1 - 1000
        rng = np.random.default_rng(1)
        big = rng.integers(magnitude - 1000, magnitude, size=config.s1 * config.s2)
        big *= rng.choice([-1, 1], size=big.size)
        for synopsis in (blocked, reference):
            synopsis.streams.counters[3] = big
            synopsis.streams.tracker(3).restore({heavy: 1 << 55})
        fallback, decided, in_process = [], [], []
        per_value, decide = TopKTracker._process, TopKTracker._decide

        def spy_process(tracker, value):
            fallback.append((id(tracker), value))
            in_process.append(True)
            try:
                per_value(tracker, value)
            finally:
                in_process.pop()

        def spy_decide(tracker, value, tracked, estimate):
            if not in_process:  # a round's or a block's decision
                decided.append(tracked)
            return decide(tracker, value, tracked, estimate)

        with mock.patch.object(TopKTracker, "_process", spy_process), \
                mock.patch.object(TopKTracker, "_decide", spy_decide):
            blocked.ingest(trees[4:], batch_trees=5)
        reference.ingest(trees[4:], batch_trees=5)
        assert full_state(blocked) == full_state(reference)
        large = id(blocked.streams.tracker(3))
        assert (large, heavy) in fallback
        assert {tracker for tracker, _ in fallback} == {large}
        # No round or block decided an arrival carrying the planted
        # frequency: only the per-value path did.
        assert max(decided, default=0) < EXACT_SUM_LIMIT // config.s1

    def test_readers_during_tracked_ingest(self):
        trees = list(TreebankGenerator(seed=3).generate(30))
        config = small_config(
            s1=20, s2=5, max_pattern_edges=4, n_virtual_streams=7, topk_size=4
        )
        serial, live = SketchTree(config), SketchTree(config)
        serial.ingest(trees, batch_trees=5)
        queries = [
            "(S (NP) (VP))", "(NP (DT) (NN))", "(VP (VB) (NP))", "(NP (NN))"
        ]
        done = threading.Event()
        errors: list[BaseException] = []

        def writer() -> None:
            try:
                live.ingest(trees, batch_trees=5)
            finally:
                done.set()

        def reader() -> None:
            try:
                while not done.is_set():
                    for query in queries:
                        assert math.isfinite(live.estimate_ordered(query))
                    for _, tracker in list(live.streams.iter_trackers()):
                        state = tracker.tracked
                        assert len(state) <= config.topk_size
                        assert all(f > 0 for f in state.values())
            except BaseException as error:  # noqa: BLE001 - asserted below
                errors.append(error)

        # More readers than cores, switching threads every microsecond.
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader) for _ in range(2 * (os.cpu_count() or 1) + 1)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert full_state(live) == full_state(serial)


class TestSignRows:
    @pytest.mark.parametrize("family", ["polynomial", "bch"])
    def test_narrowed_xi_batch_columns_equal_xi(self, family):
        streams = SketchTree(small_config(xi_family=family)).streams
        raw = [0, 1, 5, 2**31 - 2, 2**40 + 3, 2**61 - 1]
        values = streams.xi.to_field(raw, count=len(raw))
        signs = streams.xi.xi_batch(values)
        rows = streams.xi.sign_rows(values)
        assert rows.dtype == np.int8
        for column, value in enumerate(raw):
            expected = streams.xi.xi(value)
            np.testing.assert_array_equal(signs[:, column].astype(np.int8), expected)
            np.testing.assert_array_equal(rows[column], expected)
