"""Ingest workloads: ``ingest-dblp`` and ``ingest-treebank-topk``.

A run ingests one fixed pool of generated trees into a fresh synopsis,
round after round, until the next round would overrun ``--seconds``.
Every round does identical work — same trees, same cold caches — so the
median round is a steady number, and every round's counters must hash
to the oracle digest.  Set-up computes the oracle by an independent
path: :class:`~repro.ExactCounter` enumerates without the cross-tree
memo, and ``SketchTree.ingest_counts`` applies the exact counts in one
weighted batch, with top-k off.  Throughput is counted in pattern
occurrences (values) per second, which varies less with the seed than
trees per second does.

* ``ingest-dblp`` writes the pool as one dblp-style XML document and
  streams it through ``iter_dblp_trees`` into
  ``StreamProcessor(batch_trees=50)`` with top-k off: shallow, bushy
  trees with many distinct value labels, so apply and the encoder's
  miss path dominate, and XML parsing happens only here.
* ``ingest-treebank-topk`` feeds in-memory treebank trees with
  ``topk_size=8``: deep, narrow trees with few distinct patterns, where
  Algorithm 4's per-value tracking dominates and apply runs once per
  tree segment instead of once per 50-tree batch.  Unfolding every
  tracker after a round must restore the top-k-off oracle digest.

The traced run drives the same pipeline by hand through each layer's
public entry point (``collect_forest_patterns``, ``encode_batch``,
``EncodedBatch.build``, ``VirtualStreams.update_batch``,
``TopKTracker.process``), timing each call, and alternates traced with
untraced rounds so the tracing overhead is measured in the same run.
Before unfolding, a traced round's top-k state (tracked values with
their frequencies, eviction and re-arrival counts) must equal the public
rounds', which must all agree; after it, its counters must hash to the
oracle digest.
"""

from __future__ import annotations

import gc
import hashlib
import math
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np
from harness import (
    BATCH_TREES,
    REL_ERROR_GATE,
    ZERO_LAYER_COUNTS,
    LayerClock,
    Result,
    RunParams,
    config_fields,
    counters_digest,
    mean_relative_error,
    median,
    overhead_pct,
    paper_config,
    peak_rss_mb,
    percentile,
    position_medians,
    Schedule,
    SpreadSetups,
)

from repro import ExactCounter, SketchTree
from repro.core.batch import EncodedBatch
from repro.corpora.dblp import iter_dblp_trees
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.enumtree.enumerate import PatternTableMemo, collect_forest_patterns
from repro.stream import StreamProcessor
from repro.trees.xml import to_xml
from repro.workload.generator import generate_workload

#: Trees per round.  Multiples of BATCH_TREES, so every batch is full.
SIZES = {
    "full": {"ingest-dblp": 1000, "ingest-treebank-topk": 300},
    "smoke": {"ingest-dblp": 100, "ingest-treebank-topk": 50},
}
TOPK_SIZE = 8
#: The batch-latency tail.  Each batch's latency is its median over the
#: run's rounds; the batches beyond the tail then rest on at least ten
#: samples in a full-scale run at the baseline speed.
TAIL_PERCENTILE = {"ingest-dblp": 90, "ingest-treebank-topk": 80}
#: The accuracy probe's selectivity band and size.
FREQUENT_BAND = (1e-3, 1.0)
PROBE_QUERIES = 60


@dataclass
class _Inputs:
    trees: list
    xml_path: Path | None

    def source(self) -> Iterator:
        """The round's tree stream: parsed from XML, or the pool itself."""
        if self.xml_path is not None:
            return iter_dblp_trees(str(self.xml_path))
        return iter(self.trees)


def _make_inputs(workload: str, seed: int, n_trees: int, workdir: Path) -> _Inputs:
    if workload == "ingest-dblp":
        trees = list(DblpGenerator(seed=seed).generate(n_trees))
        path = workdir / "dblp.xml"
        body = "\n".join(to_xml(tree) for tree in trees)
        path.write_text(f"<dblp>\n{body}\n</dblp>\n", encoding="utf-8")
        return _Inputs(trees, path)
    return _Inputs(list(TreebankGenerator(seed=seed).generate(n_trees)), None)


def _setup(workload: str, seed: int, n_trees: int, workdir: Path):
    """Inputs plus the oracle: exact counts applied in one weighted
    batch with top-k off, and the digest of the counters they give."""
    inputs = _make_inputs(workload, seed, n_trees, workdir)
    exact = ExactCounter(paper_config(seed).max_pattern_edges).ingest(inputs.trees)
    reference = SketchTree(paper_config(seed)).ingest_counts(exact.counts)
    return inputs, exact, counters_digest(reference.streams)


def _marked(trees: Iterator, marks: list[float]) -> Iterator:
    """Pass trees through, stamping the clock as each batch's first tree
    is requested.  StreamProcessor flushes a full batch before asking
    for the next tree, so consecutive stamps bracket one batch from its
    first read to its last counter update."""
    clock = time.perf_counter
    for index, tree in enumerate(trees):
        if index % BATCH_TREES == 0:
            marks.append(clock())
        yield tree


def _untraced_round(config, inputs: _Inputs) -> tuple[float, list[float], SketchTree]:
    """The public path: ``StreamProcessor`` → ``SketchTree.update_batch``."""
    synopsis = SketchTree(config)
    processor = StreamProcessor([synopsis], batch_trees=BATCH_TREES)
    marks: list[float] = []
    gc.collect()
    start = time.perf_counter()
    processor.run(_marked(inputs.source(), marks))
    end = time.perf_counter()
    latencies = [b - a for a, b in zip(marks, marks[1:] + [end])]
    return end - start, latencies, synopsis


def _traced_round(config, inputs: _Inputs) -> tuple[float, LayerClock, SketchTree, dict]:
    """``SketchTree.update_batch`` driven by hand, one timed call per layer.

    Reproduces the public path's counters exactly: the same enumeration
    (a fresh memo is bit-identical to the synopsis' own), the same
    encoder and virtual streams, one ``update_batch`` per batch with
    top-k off, and per tree segment apply-then-track with top-k on
    (``topk_probability`` is 1, so every value is tracked).
    """
    synopsis = SketchTree(config)
    memo = PatternTableMemo()
    encoder = synopsis.encoder
    streams = synopsis.streams
    k = config.max_pattern_edges
    p = config.n_virtual_streams
    clock = LayerClock()
    applied: list[EncodedBatch] = []
    n_values = 0
    clock_now = time.perf_counter
    trees = inputs.source()
    gc.collect()
    start = clock_now()
    while True:
        t0 = clock_now()
        chunk = list(islice(trees, BATCH_TREES))
        t1 = clock_now()
        clock.add("parse", t1 - t0)
        if not chunk:
            break
        patterns, offsets = collect_forest_patterns(chunk, k, memo)
        t2 = clock_now()
        clock.add("enumerate", t2 - t1)
        raw = encoder.encode_batch(patterns)
        t3 = clock_now()
        clock.add("encode", t3 - t2)
        batch = EncodedBatch.build(raw, p, streams.xi, tree_offsets=offsets)
        t4 = clock_now()
        clock.add("route", t4 - t3)
        n_values += len(batch)
        if not config.topk_size:
            streams.update_batch(batch)
            clock.add("apply", clock_now() - t4)
            applied.append(batch)
            continue
        for lo, hi in batch.tree_segments():
            segment = batch.segment(lo, hi)
            t5 = clock_now()
            streams.update_batch(segment)
            t6 = clock_now()
            for residue, value in zip(segment.residues.tolist(), segment.raw):
                streams.tracker(residue).process(value)
            clock.add("apply", t6 - t5)
            clock.add("track", clock_now() - t6)
            applied.append(segment)
    total = clock_now() - start
    trackers = [tracker for _, tracker in streams.iter_trackers()]
    counts = {
        "enumerate.patterns": float(n_values),
        "enumerate.memo_hit_ratio": memo.hits / max(1, memo.hits + memo.misses),
        "encode.cache_hit_ratio": encoder.cache_hits
        / max(1, encoder.cache_hits + encoder.cache_misses),
        "encode.misses": float(encoder.cache_misses),
        "apply.calls": float(sum(1 for b in applied if len(b))),
        "apply.distinct_ratio": _distinct_rows(applied) / max(1, n_values),
        "track.process_calls": float(n_values if config.topk_size else 0),
        "track.evictions": float(sum(t.n_evictions for t in trackers)),
        "track.rearrivals": float(sum(t.n_rearrivals for t in trackers)),
    }
    return total, clock, synopsis, counts


def _distinct_rows(batches: list[EncodedBatch]) -> int:
    """Distinct (residue, value) rows summed over ``update_batch`` calls —
    the rows the apply layer's dedup leaves for the ξ evaluation."""
    total = 0
    for batch in batches:
        if len(batch):
            keys = (batch.residues << 32) | batch.values
            total += len(np.unique(keys))
    return total


def _tracker_digest(synopsis: SketchTree) -> str:
    """sha256 over the top-k state before unfolding: per residue, the
    tracked value → frequency map and the eviction and re-arrival
    counts.  Unfolding restores the counters whatever was tracked, so
    this is what pins the traced pipeline's tracking to the public one."""
    digest = hashlib.sha256()
    for residue, tracker in sorted(synopsis.streams.iter_trackers(), key=lambda rt: rt[0]):
        state = (residue, sorted(tracker.tracked.items()), tracker.n_evictions,
                 tracker.n_rearrivals)
        digest.update(repr(state).encode())
    return digest.hexdigest()


def _round_digest(synopsis: SketchTree) -> str:
    """Counter digest with every top-k tracker unfolded (a no-op with
    top-k off): the fold/unfold protocol's restore-to-linear state."""
    for _, tracker in list(synopsis.streams.iter_trackers()):
        tracker.unfold()
    return counters_digest(synopsis.streams)


def run(workload: str, params: RunParams) -> Result:
    n_trees = SIZES[params.scale][workload]
    topk_size = TOPK_SIZE if workload == "ingest-treebank-topk" else 0
    config = paper_config(params.seed, topk_size=topk_size)
    setups = SpreadSetups(
        lambda: _setup(workload, params.seed, n_trees, params.workdir),
        key=lambda built: built[2],
        seconds=params.seconds,
    )
    inputs, exact, oracle = setups.first()
    result = Result(
        sizes={"trees_per_round": n_trees, "batch_trees": BATCH_TREES},
        config=config_fields(config),
    )
    result.digests["oracle"] = oracle

    # Warm-up round (untimed): fills lazy module-level state, and its
    # synopsis answers the accuracy probe before the digest check.
    _, _, warm = _untraced_round(config, inputs)
    probe = generate_workload(
        exact, [FREQUENT_BAND], max_per_bucket=PROBE_QUERIES, seed=params.seed
    )
    queries = list(probe.all_queries())
    estimates = [warm.estimate_ordered(q.pattern) for q in queries]
    rel_error = mean_relative_error(estimates, [q.actual for q in queries])
    result.checks["probe_finite"] = bool(queries) and all(map(math.isfinite, estimates))
    result.checks["probe_rel_error"] = rel_error <= REL_ERROR_GATE
    trackers = {False: {_tracker_digest(warm)}, True: set()}
    result.checks["warmup_digest"] = _round_digest(warm) == oracle
    del warm

    schedule = Schedule(params.seconds, params.trace)
    latencies: list[list[float]] = []
    layers = LayerClock()
    counts: dict = {}
    restored = {False: True, True: True}
    for traced in schedule:
        if traced:
            seconds, clock, synopsis, counts = _traced_round(config, inputs)
            layers.merge(clock)
        else:
            seconds, batch_latencies, synopsis = _untraced_round(config, inputs)
            latencies.append(batch_latencies)
        trackers[traced].add(_tracker_digest(synopsis))
        restored[traced] &= _round_digest(synopsis) == oracle
        del synopsis
        schedule.record(traced, seconds)
        setups.between_rounds(schedule.elapsed)
    setup_s = setups.finish()
    result.checks["setup_repeatable"] = setups.repeatable
    result.checks["round_digests"] = restored[False]
    # Every public round must leave the same top-k state.
    result.checks["round_trackers"] = len(trackers[False]) == 1
    result.digests["trackers"] = min(trackers[False])
    result.attempted = schedule.rounds * n_trees

    tail = TAIL_PERCENTILE[workload]
    round_s = median(schedule.untraced)
    batches = position_medians(latencies)
    result.details.update(
        {
            "setup_times_s": setups.times,
            "values_per_tree": exact.n_values / n_trees,
            "distinct_patterns": len(exact.counts),
            "untraced_round_s": schedule.untraced,
            "batch_samples": sum(map(len, latencies)),
            "tail_percentile": tail,
            "ingest.trees_per_s": n_trees / round_s,
            "probe_queries": len(queries),
        }
    )
    if not params.trace:
        result.metrics = {
            "setup_s": setup_s,
            "throughput_per_s": exact.n_values / round_s,
            "latency_p50_ms": 1e3 * percentile(batches, 50),
            "latency_tail_ms": 1e3 * percentile(batches, tail),
            "peak_rss_mb": peak_rss_mb(),
        }
        return result

    result.checks["traced_digests"] = restored[True]
    result.checks["traced_trackers"] = trackers[True] == trackers[False]
    result.metrics = {
        **ZERO_LAYER_COUNTS,
        **layers.shares(sum(schedule.traced)),
        **counts,
        "trace.us_per_op": 1e6 * median(schedule.traced) / n_trees,
        "trace_overhead_pct": overhead_pct(schedule.traced, schedule.untraced),
        "estimate.rel_error_mean": rel_error,
    }
    result.details["traced_round_s"] = schedule.traced
    result.details["layer_seconds_per_round"] = {
        layer: s / len(schedule.traced) for layer, s in layers.seconds.items()
    }
    return result
