"""Property test: the synopsis is a pure function of (config, stream).

This is the runtime counterpart of sketchlint's SKL001/SKL006/SKL008
rules — every random choice in the system is derived from the config
seed, so two synopses built with the same config over the same stream
must agree *bit for bit*, not just statistically.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SketchTreeConfig
from repro.core.sketchtree import SketchTree
from repro.trees.builders import from_nested

from tests.strategies import nested_trees

streams = st.lists(nested_trees(max_nodes=6), min_size=1, max_size=5)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _build(seed: int, trees, topk_size: int = 0) -> SketchTree:
    config = SketchTreeConfig(
        s1=6,
        s2=3,
        max_pattern_edges=2,
        n_virtual_streams=11,
        seed=seed,
        topk_size=topk_size,
    )
    synopsis = SketchTree(config)
    for nested in trees:
        synopsis.update(from_nested(nested))
    return synopsis


def _assert_identical_sketch_state(a: SketchTree, b: SketchTree) -> None:
    counters_a = dict(a.streams.iter_sketches())
    counters_b = dict(b.streams.iter_sketches())
    assert counters_a.keys() == counters_b.keys()
    for residue, matrix in counters_a.items():
        assert np.array_equal(matrix.counters, counters_b[residue].counters), (
            f"virtual stream {residue} diverged"
        )


@settings(max_examples=25, deadline=None)
@given(trees=streams, seed=seeds)
def test_same_config_same_stream_is_bit_identical(trees, seed):
    first = _build(seed, trees)
    second = _build(seed, trees)
    assert first.n_trees == second.n_trees
    assert first.n_values == second.n_values
    _assert_identical_sketch_state(first, second)


@settings(max_examples=10, deadline=None)
@given(trees=streams, seed=seeds)
def test_determinism_holds_with_topk_tracking(trees, seed):
    first = _build(seed, trees, topk_size=4)
    second = _build(seed, trees, topk_size=4)
    _assert_identical_sketch_state(first, second)
    tracked_a = {r: t.tracked for r, t in first.streams.iter_trackers()}
    tracked_b = {r: t.tracked for r, t in second.streams.iter_trackers()}
    assert tracked_a == tracked_b


@settings(max_examples=10, deadline=None)
@given(trees=streams, seed=seeds)
def test_estimates_are_reproducible(trees, seed):
    first = _build(seed, trees)
    second = _build(seed, trees)
    for query in ("(A (B))", "(B (A) (C))"):
        assert first.estimate_ordered(query) == second.estimate_ordered(query)


_CROSS_PROCESS_QUERIES = """
from repro import SketchTree
from repro.datasets import TreebankGenerator

synopsis = SketchTree(
    s1=20, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=3,
    maintain_summary=True,
)
synopsis.ingest(TreebankGenerator(seed=1).generate(40))
print(repr(synopsis.estimate_unordered("(S (NP) (VP) (PP))")))
print(repr(synopsis.estimate_unordered("(NP (DT) (NN) (JJ))")))
print(repr(synopsis.estimate_xpath("//VP/*")))
"""


def test_set_ordered_estimates_agree_across_hash_seeds():
    """Unordered and ``*``/``//`` estimates sum values taken from sets,
    whose order follows the string-hash seed; the float partials must
    still add up to the same last bit in every process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_QUERIES],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 3
