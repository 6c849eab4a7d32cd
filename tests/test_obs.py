"""Tests for the runtime observability layer (:mod:`repro.obs`).

Covers the instrument primitives, the registry/default-registry
machinery, both exporters, and — the load-bearing invariants — that the
:class:`NullRegistry` default changes no synopsis state and that a fully
instrumented ingest produces bit-identical counters and estimates.
"""

import json
import sys
import threading

import numpy as np
import pytest

from repro import SketchTree, SketchTreeConfig
from repro.core.snapshot import CheckpointManager
from repro.datasets.dblp import DblpGenerator
from repro.errors import ConfigError
from repro.obs import (
    BYTE_BUCKETS,
    COUNT_BUCKETS,
    LATENCY_BUCKETS,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    get_default_registry,
    set_default_registry,
    to_json_dict,
    to_prometheus_text,
    use_registry,
    write_json,
)
from repro.stream.engine import StreamProcessor
from repro.trees import from_sexpr

CONFIG = SketchTreeConfig(
    s1=12, s2=3, max_pattern_edges=2, n_virtual_streams=13, seed=5
)

STREAM = [
    "(A (B) (C))",
    "(A (C) (B))",
    "(A (B (C)))",
    "(X (A (B)))",
    "(A (B) (B))",
    "(B (C))",
] * 3


def trees():
    return [from_sexpr(text) for text in STREAM]


def sketch_state(synopsis):
    return {
        residue: matrix.counters.copy()
        for residue, matrix in synopsis.streams.iter_sketches()
    }


class TestInstruments:
    def test_counter_inc(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", help="a counter")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_pull_counter_reads_callback(self):
        registry = MetricsRegistry()
        state = {"n": 7}
        counter = registry.counter("c", fn=lambda: state["n"])
        state["n"] = 11
        assert counter.value == 11

    def test_gauge_set_and_pull(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(3.5)
        assert gauge.value == 3.5
        pulled = registry.gauge("p", fn=lambda: 42)
        assert pulled.value == 42.0

    def test_fn_reregistration_rebinds(self):
        # A restored synopsis must be able to take over its gauges.
        registry = MetricsRegistry()
        registry.gauge("g", fn=lambda: 1)
        assert registry.gauge("g", fn=lambda: 2).value == 2
        registry.counter("c", fn=lambda: 1)
        assert registry.counter("c", fn=lambda: 9).value == 9

    def test_instruments_memoized_by_name(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_histogram_le_semantics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 2.0, 10.0, 99.0):
            histogram.observe(value)
        # le semantics: an observation equal to a bound counts under it.
        assert histogram.cumulative() == [(1.0, 2), (10.0, 4), (float("inf"), 5)]
        assert histogram.count == 5
        assert histogram.total == pytest.approx(112.5)

    def test_histogram_rejects_bad_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigError):
            registry.histogram("empty", buckets=())
        with pytest.raises(ConfigError):
            registry.histogram("unsorted", buckets=(2.0, 1.0))
        with pytest.raises(ConfigError):
            registry.histogram("dupes", buckets=(1.0, 1.0))

    def test_span_records_duration(self):
        registry = MetricsRegistry()
        with registry.span("latency"):
            pass
        histogram = registry.histogram("latency")
        assert histogram.count == 1
        assert histogram.total >= 0.0

    def test_bucket_presets_strictly_increasing(self):
        for preset in (LATENCY_BUCKETS, COUNT_BUCKETS, BYTE_BUCKETS):
            assert all(a < b for a, b in zip(preset, preset[1:]))


class TestNullRegistry:
    def test_disabled_and_inert(self):
        null = NullRegistry()
        assert null.enabled is False
        null.counter("c").inc(5)
        null.gauge("g").set(9)
        null.histogram("h").observe(1.0)
        with null.span("s"):
            pass
        assert null.counter("c").value == 0.0
        assert null.all_counters() == []
        assert null.all_gauges() == []
        assert null.all_histograms() == []

    def test_shared_instrument(self):
        null = NullRegistry()
        assert null.counter("a") is null.histogram("b")

    def test_module_default_is_null(self):
        assert get_default_registry() is NULL_REGISTRY
        assert NULL_REGISTRY.enabled is False


class TestDefaultRegistry:
    def test_set_returns_previous_and_none_restores(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            assert get_default_registry() is registry
        finally:
            assert set_default_registry(None) is registry
        assert get_default_registry() is NULL_REGISTRY
        set_default_registry(previous)

    def test_use_registry_restores_on_exit(self):
        registry = MetricsRegistry()
        with use_registry(registry) as active:
            assert active is registry
            assert get_default_registry() is registry
        assert get_default_registry() is NULL_REGISTRY

    def test_use_registry_restores_on_error(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with use_registry(registry):
                raise RuntimeError("boom")
        assert get_default_registry() is NULL_REGISTRY


class TestExporters:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("events_total", help="events seen").inc(12)
        registry.gauge("level", help="a level").set(0.75)
        histogram = registry.histogram("size", buckets=(1.0, 10.0))
        for value in (0.5, 3.0, 42.0):
            histogram.observe(value)
        return registry

    def test_prometheus_text_shape(self):
        text = to_prometheus_text(self.build_registry())
        assert "# TYPE repro_events_total counter" in text
        assert "repro_events_total 12" in text
        assert "repro_level 0.75" in text
        assert 'repro_size_bucket{le="1"} 1' in text
        assert 'repro_size_bucket{le="10"} 2' in text
        assert 'repro_size_bucket{le="+Inf"} 3' in text
        assert "repro_size_count 3" in text
        assert text.endswith("\n")

    def test_prometheus_bucket_counts_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h")
        for value in (1e-6, 1e-4, 1e-2, 1.0, 100.0):
            histogram.observe(value)
        counts = [count for _, count in histogram.cumulative()]
        assert counts == sorted(counts)
        assert counts[-1] == histogram.count

    def test_prometheus_sanitizes_names(self):
        registry = MetricsRegistry()
        registry.counter("weird-name.total").inc()
        assert "repro_weird_name_total 1" in to_prometheus_text(registry)

    def test_prometheus_escapes_help_text(self):
        """Regression: HELP strings with newlines or backslashes must be
        escaped per the exposition format (0.0.4), or the remainder of a
        multi-line help text parses as garbage sample lines."""
        registry = MetricsRegistry()
        registry.gauge(
            "depth", help="line one\nline two (bounded)"
        ).set(3)
        registry.counter("paths_total", help="matches C:\\trees\\*").inc(2)
        text = to_prometheus_text(registry)
        assert "# HELP repro_depth line one\\nline two (bounded)" in text
        assert "# HELP repro_paths_total matches C:\\\\trees\\\\*" in text
        assert "\nline two" not in text  # no raw newline leaked through

    def test_prometheus_text_parse_round_trip(self):
        """Every line of the exposition must scan as a comment or a
        sample, and un-escaping HELP recovers the original help text."""
        registry = self.build_registry()
        registry.gauge("tricky", help="a\\b\nc").set(1)
        helps = {}
        for line in to_prometheus_text(registry).splitlines():
            assert line, "no blank/garbage lines"
            if line.startswith("# HELP "):
                name, escaped = line[len("# HELP "):].split(" ", 1)
                helps[name] = (
                    escaped.replace("\\n", "\n").replace("\\\\", "\\")
                )
            elif line.startswith("# TYPE "):
                name, kind = line[len("# TYPE "):].split(" ")
                assert kind in ("counter", "gauge", "histogram")
            else:  # a sample: name{labels} value
                name, value = line.rsplit(" ", 1)
                float(value)
        assert helps["repro_tricky"] == "a\\b\nc"

    def test_json_dict_round_trips(self):
        payload = to_json_dict(self.build_registry())
        clone = json.loads(json.dumps(payload))
        assert clone["counters"]["events_total"] == 12
        assert clone["gauges"]["level"] == 0.75
        assert clone["histograms"]["size"]["count"] == 3
        assert clone["histograms"]["size"]["buckets"][-1][0] == "+Inf"

    def test_write_json(self, tmp_path):
        path = write_json(self.build_registry(), tmp_path / "metrics.json")
        assert json.loads(path.read_text())["counters"]["events_total"] == 12

    def test_empty_registry_exports(self):
        registry = MetricsRegistry()
        assert to_prometheus_text(registry) == ""
        assert to_json_dict(registry) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestIngestNeutrality:
    """Metrics never change estimates — the acceptance-critical invariant."""

    def test_enabled_ingest_bit_identical_to_disabled(self):
        disabled = SketchTree(CONFIG)
        enabled = SketchTree(CONFIG, metrics=MetricsRegistry())
        disabled.update_batch(trees())
        enabled.update_batch(trees())
        left, right = sketch_state(disabled), sketch_state(enabled)
        assert left.keys() == right.keys()
        for residue, counters in left.items():
            assert np.array_equal(counters, right[residue])
        for query in ["(A (B))", "(A (B) (C))", "(B (C))"]:
            assert disabled.estimate_ordered(query) == enabled.estimate_ordered(
                query
            )

    def test_topk_ingest_bit_identical(self):
        config = SketchTreeConfig(
            s1=12,
            s2=3,
            max_pattern_edges=2,
            n_virtual_streams=13,
            topk_size=3,
            seed=5,
        )
        registry = MetricsRegistry()
        disabled = SketchTree(config)
        enabled = SketchTree(config, metrics=registry)
        for tree in trees():
            disabled.update(tree)
            enabled.update(tree)
        assert {r: t.tracked for r, t in disabled.streams.iter_trackers()} == {
            r: t.tracked for r, t in enabled.streams.iter_trackers()
        }
        # The top-k churn instruments are registered and consistent.
        names = {c.name for c in registry.all_counters()}
        assert "topk_evictions_total" in names
        assert "topk_rearrivals_total" in names

    def test_track_span_separate_from_apply(self):
        topk = SketchTreeConfig(
            s1=12, s2=3, max_pattern_edges=2, n_virtual_streams=13, topk_size=3
        )
        registry = MetricsRegistry()
        synopsis = SketchTree(topk, metrics=registry)
        synopsis.update_batch(trees())
        synopsis.update(trees()[0])
        synopsis.delete_tree(trees()[0])  # applies without tracking
        histograms = {h.name: h for h in registry.all_histograms()}
        assert histograms["ingest_apply_seconds"].count == 3
        assert histograms["ingest_track_seconds"].count == 2
        assert histograms["ingest_track_seconds"].total > 0
        # With top-k off nothing is tracked, so no track span appears.
        plain = MetricsRegistry()
        SketchTree(CONFIG, metrics=plain).update_batch(trees())
        assert "ingest_track_seconds" not in {h.name for h in plain.all_histograms()}

    def test_ingest_instruments_populated(self):
        registry = MetricsRegistry()
        synopsis = SketchTree(CONFIG, metrics=registry)
        synopsis.update_batch(trees())
        counters = {c.name: c.value for c in registry.all_counters()}
        assert counters["ingest_values_total"] == synopsis.n_values
        assert (
            counters["encoder_cache_hits_total"]
            + counters["encoder_cache_misses_total"]
            == synopsis.n_values
        )
        gauges = {g.name: g.value for g in registry.all_gauges()}
        assert gauges["virtual_streams_nonzero"] == synopsis.streams.n_nonzero
        assert gauges["sketch_counter_l2_mass"] > 0
        assert gauges["encoder_label_cache_size"] == synopsis.encoder.label_cache_size
        assert gauges["encoder_label_cache_size"] > 0
        histograms = {h.name: h for h in registry.all_histograms()}
        assert histograms["ingest_patterns_per_tree"].count == synopsis.n_trees

    def test_snapshot_round_trip_with_metrics(self):
        registry = MetricsRegistry()
        synopsis = SketchTree(CONFIG, metrics=registry)
        synopsis.update_batch(trees())
        restored = SketchTree.from_bytes(synopsis.to_bytes())
        # Metrics are not synopsis state: the restored copy attaches to
        # the process default (NULL), yet its counters are identical.
        assert restored.metrics.enabled is False
        left, right = sketch_state(synopsis), sketch_state(restored)
        for residue, counters in left.items():
            assert np.array_equal(counters, right[residue])
        # Re-attaching rebinds the pull gauges to the restored instance.
        restored.set_metrics(registry)
        gauges = {g.name: g.value for g in registry.all_gauges()}
        assert gauges["virtual_streams_nonzero"] == restored.streams.n_nonzero


class TestGaugesUnderIngest:
    """Scrapes race a synopsis' first values.

    One thread renders every gauge in a loop while a fresh p = 229,
    top-k 8 synopsis ingests 60 dblp trees.  With streams allocated on
    their first value, the L2-mass and top-k churn gauges iterated
    tables that ingest grew, and a scrape that landed mid-growth raised
    ``RuntimeError: dictionary changed size during iteration``; that
    showed in most runs, not every one, since only the allocations race.
    """

    def test_scrapes_during_ingest_never_raise(self):
        config = SketchTreeConfig(n_virtual_streams=229, topk_size=8, seed=11)
        registry = MetricsRegistry()
        synopsis = SketchTree(config, metrics=registry)
        trees = list(DblpGenerator(seed=3).generate(60))
        done = threading.Event()
        errors, scrapes = [], [0]

        def scraper():
            try:
                while not done.is_set():
                    to_prometheus_text(registry)
                    scrapes[0] += 1
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=scraper)
        try:
            thread.start()
            synopsis.ingest(trees, batch_trees=5)
        finally:
            done.set()
            thread.join(timeout=120)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []
        assert scrapes[0] > 0


class TestStreamAndSnapshotInstrumentation:
    def test_stream_processor_flush_metrics(self):
        registry = MetricsRegistry()
        processor = StreamProcessor(
            [SketchTree(CONFIG, metrics=registry)],
            batch_trees=4,
            metrics=registry,
        )
        stats = processor.run(trees())
        counters = {c.name: c.value for c in registry.all_counters()}
        assert counters["stream_trees_total"] == stats.n_trees
        histograms = {h.name: h for h in registry.all_histograms()}
        assert histograms["stream_batch_trees"].total == stats.n_trees
        assert histograms["stream_flush_seconds"].count > 0

    def test_checkpoint_manager_byte_metrics(self, tmp_path):
        registry = MetricsRegistry()
        manager = CheckpointManager(tmp_path, metrics=registry)
        synopsis = SketchTree(CONFIG)
        synopsis.update_batch(trees())
        path = manager.save(synopsis)
        manager.load_latest()
        counters = {c.name: c.value for c in registry.all_counters()}
        assert counters["snapshot_save_bytes_total"] == path.stat().st_size
        assert counters["snapshot_load_bytes_total"] == path.stat().st_size
        histograms = {h.name: h for h in registry.all_histograms()}
        assert histograms["snapshot_save_seconds"].count == 1
        assert histograms["snapshot_load_seconds"].count == 1

    def test_stream_checkpoint_span_recorded(self):
        registry = MetricsRegistry()
        processor = StreamProcessor(
            [SketchTree(CONFIG, metrics=registry)],
            checkpoint_every=6,
            on_checkpoint=lambda n: n,
            metrics=registry,
        )
        processor.run(trees())
        histograms = {h.name: h for h in registry.all_histograms()}
        assert histograms["stream_checkpoint_seconds"].count == len(STREAM) // 6


class TestCliStats:
    def test_stats_subcommand_prometheus(self, capsys):
        from repro.cli import main

        rc = main(
            [
                "stats",
                "--dataset",
                "dblp",
                "--n-trees",
                "5",
                "--s1",
                "10",
                "--s2",
                "3",
                "--streams",
                "13",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "repro_ingest_values_total" in captured.out
        assert "repro_stream_trees_total 5" in captured.out
        assert "processed 5 trees" in captured.err

    def test_stats_subcommand_json_to_file(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.json"
        rc = main(
            [
                "stats",
                "--dataset",
                "dblp",
                "--n-trees",
                "5",
                "--s1",
                "10",
                "--s2",
                "3",
                "--streams",
                "13",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["counters"]["stream_trees_total"] == 5
