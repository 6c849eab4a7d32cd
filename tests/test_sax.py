"""Tests for XML event streaming and SAX-style pattern enumeration."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

from repro import SketchTree, SketchTreeConfig
from repro.enumtree import enumerate_patterns
from repro.errors import ConfigError, TreeError, XmlParseError
from repro.stream import SaxPatternEnumerator, iter_xml_patterns, sketch_xml_stream
from repro.trees import iter_events, parse_forest, to_xml
from repro.trees.node import TreeNode
from repro.trees.tree import LabeledTree
from tests.strategies import labeled_trees

SAMPLE = '<a x="1"><b>t</b><c/><b><d/></b></a><e><f/>txt</e>'


def tree_from_events(events):
    """Reference builder: fold events into TreeNode structures."""
    forest, stack = [], []
    for event in events:
        if event[0] == "open":
            node = TreeNode(event[1])
            if stack:
                stack[-1].add_child(node)
            stack.append(node)
        elif event[0] == "text":
            stack[-1].add(event[1])
        else:
            node = stack.pop()
            if not stack:
                forest.append(LabeledTree(node))
    return forest


class TestIterEvents:
    def test_events_rebuild_parse_forest(self):
        assert tree_from_events(iter_events(SAMPLE)) == parse_forest(SAMPLE)

    def test_attributes_dropped_when_disabled(self):
        events = list(iter_events('<a x="1"/>', keep_attributes=False))
        assert events == [("open", "a"), ("close",)]

    def test_text_and_cdata(self):
        events = list(iter_events("<a>x<![CDATA[y]]></a>"))
        assert events == [("open", "a"), ("text", "xy"), ("close",)]

    def test_balanced(self):
        events = list(iter_events(SAMPLE))
        assert sum(1 for e in events if e[0] == "open") == sum(
            1 for e in events if e[0] == "close"
        )

    def test_malformed_raises(self):
        with pytest.raises(XmlParseError):
            list(iter_events("<a><b></a>"))
        with pytest.raises(XmlParseError):
            list(iter_events("<a>"))

    @given(labeled_trees(max_nodes=10))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_via_serialiser(self, tree):
        text = to_xml(tree)
        assert tree_from_events(iter_events(text)) == parse_forest(text)


class TestSaxEnumerator:
    def test_matches_batch_enumeration(self):
        want = Counter()
        for tree in parse_forest(SAMPLE):
            want.update(enumerate_patterns(tree, 3))
        assert Counter(iter_xml_patterns(SAMPLE, 3)) == want

    def test_emits_eagerly_on_close(self):
        seen = []
        enumerator = SaxPatternEnumerator(2, seen.append)
        enumerator.open("a")
        enumerator.open("b")
        enumerator.open("c")
        enumerator.close()  # c closes: no patterns (leaf)
        assert seen == []
        enumerator.close()  # b closes: pattern b(c) emitted now
        assert ("b", (("c", ()),)) in seen

    def test_frontier_memory_is_path_local(self):
        # A long chain keeps at most one completed child table per level
        # of the open path; after closing everything the frontier is 0.
        enumerator = SaxPatternEnumerator(2, lambda p: None)
        for _ in range(50):
            enumerator.open("x")
        assert enumerator.frontier_tables() == 0
        for _ in range(50):
            enumerator.close()
        assert enumerator.depth == 0

    def test_unbalanced_close_raises(self):
        enumerator = SaxPatternEnumerator(2, lambda p: None)
        with pytest.raises(TreeError):
            enumerator.close()

    def test_unknown_event_kind(self):
        enumerator = SaxPatternEnumerator(2, lambda p: None)
        with pytest.raises(TreeError):
            enumerator.feed(("comment", "hi"))

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            SaxPatternEnumerator(0, lambda p: None)

    def test_unclosed_stream_detected(self):
        with pytest.raises(XmlParseError):
            list(iter_xml_patterns("<a><b>", 2))

    @given(labeled_trees(max_nodes=9))
    @settings(max_examples=40, deadline=None)
    def test_equivalence_property(self, tree):
        text = to_xml(tree)
        want = Counter(enumerate_patterns(parse_forest(text)[0], 3))
        assert Counter(iter_xml_patterns(text, 3)) == want


class TestSketchXmlStream:
    CONFIG = SketchTreeConfig(
        s1=40, s2=5, max_pattern_edges=3, n_virtual_streams=31, seed=3
    )

    def test_identical_sketch_state(self):
        via_trees = SketchTree(self.CONFIG).ingest(parse_forest(SAMPLE))
        via_sax = sketch_xml_stream(SketchTree(self.CONFIG), SAMPLE)
        for residue, matrix in via_trees.streams.iter_sketches():
            other = via_sax.streams.sketch(residue)
            assert other is not None
            assert np.array_equal(matrix.counters, other.counters)
        assert via_sax.n_trees == via_trees.n_trees
        assert via_sax.n_values == via_trees.n_values

    def test_with_topk(self):
        config = SketchTreeConfig(
            s1=40, s2=5, max_pattern_edges=2, n_virtual_streams=31,
            topk_size=2, seed=5,
        )
        synopsis = sketch_xml_stream(SketchTree(config), "<h><x/></h>" * 100)
        assert synopsis.estimate_ordered("(h (x))") == pytest.approx(100, abs=15)

    def test_returns_synopsis(self):
        synopsis = SketchTree(self.CONFIG)
        assert sketch_xml_stream(synopsis, "<a><b/></a>") is synopsis
