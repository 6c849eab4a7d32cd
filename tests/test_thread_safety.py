"""Threaded hammer tests for the serving-tier concurrency contracts.

These pin the runtime side of the SKL2xx analysis (docs/concurrency.md):

* sharded ingest — one thread per private :class:`SketchTree` shard with
  concurrent ``estimate_*`` readers — then :meth:`SketchTree.merge`
  produces counters bit-identical to a serial run (AMS linearity);
* the locked :class:`PatternEncoder` stays consistent under concurrent
  ``encode_batch`` calls and its LRU accounting stays exact;
* :class:`Counter`/:class:`Histogram` totals are exact under contention
  (the ``+= 1`` the analysis flags as SKL202 when unguarded);
* :class:`TopKTracker` and :class:`CheckpointManager` survive a
  writer/reader hammer without exceptions or invariant violations.

``sys.setswitchinterval`` is dropped to force frequent preemption, which
makes the pre-lock races (lost updates, LRU corruption) reproduce
reliably enough that these tests guarded the locks' introduction.
"""

import sys
import threading

import numpy as np
import pytest

import repro.core.encoding as encoding_module
from repro import ExactCounter, SketchTree, SketchTreeConfig
from repro.core import PatternEncoder
from repro.core.snapshot import CheckpointManager
from repro.core.topk import TopKTracker
from repro.obs.registry import MetricsRegistry
from repro.sketch.ams import SketchMatrix
from repro.trees import from_sexpr

CONFIG = SketchTreeConfig(
    s1=40, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=7
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(A (B) (C))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(A (B (C) (B)))",
    "(X (A (C)))",
]


@pytest.fixture(autouse=True)
def frequent_preemption():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(previous)


def run_threads(targets):
    """Run thunks concurrently; re-raise the first exception, if any."""
    errors = []

    def wrap(fn):
        def runner():
            try:
                fn()
            except BaseException as error:  # noqa: BLE001 - rethrown below
                errors.append(error)

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class TestShardedIngest:
    N_SHARDS = 4
    REPEAT = 25

    def _chunks(self):
        trees = [from_sexpr(text) for text in STREAM * self.REPEAT]
        return [trees[i :: self.N_SHARDS] for i in range(self.N_SHARDS)]

    def test_shard_merge_is_bit_identical_to_serial(self):
        chunks = self._chunks()
        shards = [SketchTree(CONFIG) for _ in chunks]
        queries = ["(A (B))", "(A (B) (C))", "(X (A))"]
        estimates = []

        def ingest(shard, trees):
            def run():
                for tree in trees:
                    shard.update(tree)

            return run

        def read():
            # Racy-but-benign reads against shard 0 while it ingests:
            # estimates must come back finite, never raise.
            for _ in range(50):
                for query in queries:
                    estimates.append(shards[0].estimate_ordered(query))

        run_threads(
            [ingest(shard, trees) for shard, trees in zip(shards, chunks)]
            + [read, read]
        )
        assert all(np.isfinite(estimates))

        merged = shards[0]
        for shard in shards[1:]:  # shards are quiesced: threads joined
            merged = merged.merge(shard)

        serial = SketchTree(CONFIG)
        for chunk in self._chunks():
            for tree in chunk:
                serial.update(tree)

        assert merged.n_trees == serial.n_trees
        assert merged.n_values == serial.n_values
        for residue, matrix in serial.streams.iter_sketches():
            other = merged.streams.sketch(residue)
            assert other is not None
            assert np.array_equal(matrix.counters, other.counters)

    def test_merged_estimates_match_serial(self):
        chunks = self._chunks()
        shards = [SketchTree(CONFIG) for _ in chunks]
        run_threads(
            [
                (lambda s, ts: lambda: [s.update(t) for t in ts])(shard, trees)
                for shard, trees in zip(shards, chunks)
            ]
        )
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merge(shard)
        serial = SketchTree(CONFIG)
        for chunk in self._chunks():
            for tree in chunk:
                serial.update(tree)
        for query in ["(A (B))", "(A (B) (C))", "(X (A (B)))"]:
            assert merged.estimate_ordered(query) == pytest.approx(
                serial.estimate_ordered(query)
            )


class TestEncoderHammer:
    N_THREADS = 6
    ROUNDS = 30

    def test_concurrent_encode_batch_is_consistent(self, monkeypatch):
        patterns = [
            from_sexpr(text).to_nested() for text in STREAM
        ]
        reference = dict(
            zip(patterns, PatternEncoder(seed=3).encode_batch(patterns))
        )
        monkeypatch.setattr(encoding_module, "PATTERN_CACHE_LIMIT", 4)
        shared = PatternEncoder(seed=3)  # the small bound forces evictions
        results = [None] * self.N_THREADS

        def worker(index):
            def run():
                mine = []
                for round_no in range(self.ROUNDS):
                    rotated = patterns[round_no % len(patterns) :] + patterns[
                        : round_no % len(patterns)
                    ]
                    mine.append((rotated, shared.encode_batch(rotated)))
                results[index] = mine

            return run

        run_threads([worker(i) for i in range(self.N_THREADS)])
        for mine in results:
            assert mine is not None
            for rotated, values in mine:
                assert values == [reference[p] for p in rotated]

    def test_lru_accounting_is_exact(self):
        patterns = [from_sexpr(text).to_nested() for text in STREAM]
        shared = PatternEncoder(seed=3)
        total = self.N_THREADS * self.ROUNDS * len(patterns)

        def worker():
            for _ in range(self.ROUNDS):
                shared.encode_batch(patterns)

        run_threads([worker] * self.N_THREADS)
        assert shared.cache_hits + shared.cache_misses == total
        assert shared.cache_size == len(set(patterns))


class TestRegistryHammer:
    N_THREADS = 8
    INCREMENTS = 2000

    def test_counter_totals_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer_total")

        def worker():
            for _ in range(self.INCREMENTS):
                counter.inc()

        run_threads([worker] * self.N_THREADS)
        assert counter.value == self.N_THREADS * self.INCREMENTS

    def test_histogram_counts_are_exact(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("hammer_latency")

        def worker():
            for i in range(self.INCREMENTS):
                histogram.observe(1e-05 * (i % 7))

        run_threads([worker] * self.N_THREADS)
        assert histogram.count == self.N_THREADS * self.INCREMENTS
        assert histogram.cumulative()[-1][1] == self.N_THREADS * self.INCREMENTS

    def test_get_or_create_returns_one_instrument(self):
        registry = MetricsRegistry()
        seen = []

        def worker():
            for _ in range(200):
                seen.append(registry.counter("shared_name"))

        run_threads([worker] * self.N_THREADS)
        assert len({id(instrument) for instrument in seen}) == 1


class TestTopKHammer:
    def test_writer_with_concurrent_readers(self):
        matrix = SketchMatrix(40, 5, seed=1)
        values = [v for v in range(12) for _ in range(20)]
        for value in values:
            matrix.update(value, 1)
        tracker = TopKTracker(4, matrix)
        snapshots = []

        def writer():
            for value in values:
                tracker.process(value)

        def reader():
            for _ in range(200):
                adjust = tracker.adjustment([1, 2, 3])
                assert adjust is None or np.all(np.isfinite(adjust))
                state = tracker.snapshot()
                assert len(state) <= 4
                snapshots.append(state)

        run_threads([writer, reader, reader])
        assert tracker.n_tracked <= 4
        # A snapshot taken mid-hammer restores into a working tracker.
        restored = TopKTracker(4, matrix)
        restored.restore(snapshots[-1])
        assert restored.n_tracked == len(snapshots[-1])


class TestCheckpointHammer:
    N_THREADS = 4
    SAVES = 5

    def test_concurrent_saves_respect_retention(self, tmp_path):
        manager = CheckpointManager(tmp_path, keep_last=2)
        synopses = []
        for index in range(self.N_THREADS):
            synopsis = SketchTree(CONFIG)
            for text in STREAM[: index + 1]:
                synopsis.update(from_sexpr(text))
            synopses.append(synopsis)

        def worker(synopsis):
            def run():
                for _ in range(self.SAVES):
                    manager.save(synopsis)
                    manager.prune()

            return run

        run_threads([worker(s) for s in synopses])
        assert manager.n_saves == self.N_THREADS * self.SAVES
        assert len(manager.paths()) <= 2
        restored = manager.load_latest()
        assert restored is not None
        assert restored.n_trees in {s.n_trees for s in synopses}


class TestExactnessCrossCheck:
    def test_threaded_shards_match_exact_counts(self):
        # End-to-end: sharded threaded ingest, merged, compared against
        # the exact counter — the estimates carry only sketch error.
        trees = [from_sexpr(text) for text in STREAM * 20]
        exact = ExactCounter(CONFIG.max_pattern_edges)
        for tree in trees:
            exact.update(tree)
        shards = [SketchTree(CONFIG) for _ in range(3)]
        run_threads(
            [
                (lambda s, ts: lambda: [s.update(t) for t in ts])(
                    shards[i], trees[i::3]
                )
                for i in range(3)
            ]
        )
        merged = shards[0].merge(shards[1]).merge(shards[2])
        pattern = from_sexpr("(A (B) (C))").to_nested()
        actual = exact.count_ordered(pattern)
        assert merged.estimate_ordered(pattern) == pytest.approx(
            actual, abs=max(5, 0.3 * actual)
        )
