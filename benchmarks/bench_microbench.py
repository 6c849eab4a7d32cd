"""Component micro-benchmarks: throughput of the pipeline's stages.

Unlike the figure benches (single-shot experiment regenerations), these
use pytest-benchmark's statistics properly — many rounds over small
units — to characterise the substrate:

* EnumTree enumeration rate (patterns/second) on both dataset shapes;
* extended Prüfer construction;
* Rabin fingerprinting of pattern sequences;
* ξ evaluation (both families' ``sign_rows`` kernels) over a value batch;
* AMS batch updates and point estimates;
* Algorithm 4's ``VirtualStreams.track_rows`` at p ∈ {1, 7, 229};
* end-to-end ``SketchTree.update`` per tree;
* the query read path: ``*`` / ``//`` resolution against a structural
  summary, s-expression pattern parsing, and one grouped Theorem 2
  estimate.

No paper claims here — these are the engineering numbers a downstream
user would ask for.
"""

import numpy as np
import pytest

from repro import SketchTree, SketchTreeConfig
from repro.core.batch import EncodedBatch
from repro.core.encoding import PatternEncoder
from repro.datasets import DblpGenerator, TreebankGenerator
from repro.enumtree import collect_forest_patterns, enumerate_patterns
from repro.prufer import prufer_of_nested
from repro.query import StructuralSummary, parse_xpath
from repro.sketch import BchXiGenerator, SketchMatrix, XiGenerator
from repro.trees import to_sexpr
from repro.trees.builders import pattern_from_sexpr


@pytest.fixture(scope="module")
def treebank_tree():
    return next(iter(TreebankGenerator(seed=1).generate(1)))


@pytest.fixture(scope="module")
def dblp_tree():
    return next(iter(DblpGenerator(seed=1).generate(1)))


@pytest.fixture(scope="module")
def sample_patterns(treebank_tree):
    return enumerate_patterns(treebank_tree, 4)


def test_micro_enumtree_treebank(benchmark, treebank_tree):
    patterns = benchmark(enumerate_patterns, treebank_tree, 4)
    assert patterns


def test_micro_enumtree_dblp(benchmark, dblp_tree):
    patterns = benchmark(enumerate_patterns, dblp_tree, 4)
    assert patterns


def test_micro_prufer(benchmark, sample_patterns):
    def encode_all():
        return [prufer_of_nested(p) for p in sample_patterns]

    sequences = benchmark(encode_all)
    assert len(sequences) == len(sample_patterns)


def test_micro_rabin_encoding(benchmark, sample_patterns):
    def encode_all():
        encoder = PatternEncoder(seed=1)  # fresh: defeat the memo
        return [encoder.encode(p) for p in sample_patterns]

    values = benchmark(encode_all)
    assert len(values) == len(sample_patterns)


def test_micro_rabin_encoding_batched(benchmark, sample_patterns):
    """The columnar counterpart of per-pattern encoding (same values)."""

    def encode_all():
        encoder = PatternEncoder(seed=1)  # fresh: defeat the memo
        return encoder.encode_batch(sample_patterns)

    values = benchmark(encode_all)
    assert len(values) == len(sample_patterns)


@pytest.mark.parametrize(
    "family", ["polynomial", "bch"], ids=["xi-polynomial", "xi-bch"]
)
def test_micro_xi_batch(benchmark, family):
    """Each family's ingest kernel: int8 ξ rows for a value batch."""
    if family == "polynomial":
        generator = XiGenerator(350, independence=4, seed=1)
    else:
        generator = BchXiGenerator(350, seed=1)
    values = np.arange(1024, dtype=np.int64) * 7919 % (1 << 31)
    rows = benchmark(generator.sign_rows, values)
    assert rows.shape == (1024, 350)
    assert rows.dtype == np.int8


def test_micro_ams_batch_update(benchmark):
    matrix = SketchMatrix(50, 7, seed=1)
    values = np.arange(1024, dtype=np.int64) * 104729 % (1 << 31)

    benchmark(matrix.update_batch, values)
    assert matrix.counters.any()


def test_micro_ams_estimate(benchmark):
    matrix = SketchMatrix(50, 7, seed=1)
    matrix.update_counts({v: 3 for v in range(500)})
    estimate = benchmark(matrix.estimate, 42)
    assert isinstance(estimate, float)


@pytest.mark.parametrize("p", [1, 7, 229])
def test_micro_track_rows(benchmark, p):
    """Top-k tracking of 20 treebank trees, one ``track_rows`` call per
    tree segment, on counters that hold all 20 trees.  At p = 1 every
    call is one block; at 7 and 229 the calls run wavefront rounds."""
    config = SketchTreeConfig(
        s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=p, topk_size=8, seed=1
    )
    trees = list(TreebankGenerator(seed=2).generate(20))
    patterns, offsets = collect_forest_patterns(trees, config.max_pattern_edges)

    def setup():
        synopsis = SketchTree(config)
        streams = synopsis.streams
        raw = synopsis.encoder.encode_batch(patterns)
        batch = EncodedBatch.build(raw, p, streams.xi, tree_offsets=offsets)
        streams.update_batch(batch)
        segments = [
            batch.segment(start, stop) for start, stop in batch.tree_segments()
        ]
        rows = [
            (
                segment.residues,
                np.array(segment.raw, dtype=object),
                streams.xi.sign_rows(segment.values),
            )
            for segment in segments
        ]
        return (streams, rows), {}

    def track(streams, rows):
        for residues, raw, signs in rows:
            streams.track_rows(residues, raw, signs)
        return streams

    streams = benchmark.pedantic(track, setup=setup, rounds=10)
    assert any(tracker.n_tracked for _, tracker in streams.iter_trackers())


def test_micro_sketchtree_update(benchmark, treebank_tree):
    config = SketchTreeConfig(
        s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=229, seed=1
    )
    synopsis = SketchTree(config)
    benchmark(synopsis.update, treebank_tree)
    assert synopsis.n_trees > 0


def test_micro_sketchtree_update_batch(benchmark):
    """Cross-tree micro-batching: 16 trees per ``update_batch`` call."""
    config = SketchTreeConfig(
        s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=229, seed=1
    )
    synopsis = SketchTree(config)
    trees = list(TreebankGenerator(seed=2).generate(16))
    benchmark(synopsis.update_batch, trees)
    assert synopsis.n_trees > 0


@pytest.fixture(scope="module")
def dblp_summary():
    """The structural summary of 800 dblp trees (query-mix's stream size)."""
    summary = StructuralSummary()
    summary.add_trees(DblpGenerator(seed=1).generate(800))
    return summary


@pytest.mark.parametrize(
    "xpath", ["*[author]/title", "article//author"], ids=["wildcard-root", "descendant"]
)
def test_micro_resolve(benchmark, dblp_summary, xpath):
    """Indexed resolution: a ``*`` root anchors on its concrete child's
    label, and ``//`` walks only the matched node's subtree."""
    query = parse_xpath(xpath)
    resolved = benchmark(dblp_summary.resolve, query, 4)
    assert resolved


def test_micro_pattern_from_sexpr(benchmark):
    texts = [to_sexpr(tree) for tree in DblpGenerator(seed=3).generate(100)]

    def parse_all():
        return [pattern_from_sexpr(text) for text in texts]

    patterns = benchmark(parse_all)
    assert len(patterns) == len(texts)


def test_micro_estimate_unordered(benchmark):
    """One grouped Theorem 2 pass over an unordered pattern's
    arrangements (six, spread over their residues)."""
    config = SketchTreeConfig(
        s1=50, s2=7, max_pattern_edges=4, n_virtual_streams=229, seed=1
    )
    synopsis = SketchTree(config)
    synopsis.update_batch(list(DblpGenerator(seed=1).generate(200)))
    estimate = benchmark(
        synopsis.estimate_unordered, "(article (author) (title) (year))"
    )
    assert estimate > 0
