"""Tests for the counter view, the one read path every estimate takes."""

import dataclasses

import pytest

from repro.core import SketchTree, SketchTreeConfig, VirtualStreams
from repro.core.view import CounterReads, CounterView
from repro.errors import ConfigError
from repro.trees import from_sexpr

from .estimate_kinds import CONFIG, KINDS, STREAM

TREES = [from_sexpr(text) for text in STREAM]


def synopsis(trees, config=CONFIG):
    built = SketchTree(config)
    built.update_batch(trees)
    return built


def counter_bytes(*synopses):
    return [
        {r: m.counters.tobytes() for r, m in s.streams.iter_sketches()}
        for s in synopses
    ]


class TestSingleSource:
    def test_hands_back_own_matrices_uncopied(self):
        single = synopsis(TREES)
        view = single.view()
        for residue, matrix in single.streams.iter_sketches():
            assert view.sketch_if_allocated(residue) is matrix
        assert view.summary is single.summary

    def test_virtual_streams_share_the_view_code(self):
        """``VirtualStreams`` keeps its query-side names, but the bodies
        are the view's: one definition for one and several sources."""
        assert VirtualStreams.view is CounterReads.combined
        for name in ("combined", "estimate_sum_grouped", "combined_counters"):
            assert getattr(VirtualStreams, name) is getattr(CounterReads, name)
            assert getattr(CounterView, name) is getattr(CounterReads, name)


class TestSeveralSources:
    def parts(self):
        return synopsis(TREES[:25]), synopsis(TREES[25:40]), synopsis(TREES[40:])

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_every_kind_matches_merge(self, kind):
        a, b, c = self.parts()
        assert KINDS[kind](CounterView([a, b, c])) == KINDS[kind](a.merge(b).merge(c))

    def test_never_writes_counters(self):
        parts = self.parts()
        before = counter_bytes(*parts)
        view = CounterView(parts)
        for call in KINDS.values():
            call(view)
        assert counter_bytes(*parts) == before

    def test_sums_only_on_read(self):
        """Nothing is cached: counters that move after the view is made
        show up in its next answer."""
        a, b, _ = self.parts()
        view = CounterView([a, b])
        before = view.estimate_ordered("(E (E1))")
        b.update_batch([from_sexpr("(E (E1))")] * 30)
        assert view.estimate_ordered("(E (E1))") > before

    def test_refuses_other_configs_and_no_sources(self):
        a = synopsis(TREES[:5])
        b = synopsis(TREES[:5], dataclasses.replace(CONFIG, seed=CONFIG.seed + 1))
        with pytest.raises(ConfigError, match="identical configs"):
            CounterView([a, b])
        with pytest.raises(ConfigError):
            CounterView([])


class TestPairingEncoding:
    CONFIG = SketchTreeConfig(
        s1=30, s2=5, max_pattern_edges=2, n_virtual_streams=31, seed=3,
        mapping="pairing",
    )

    def test_independent_encoders_refuse_to_combine(self):
        """Each pairing encoder numbers labels in first-seen order, so
        the same pattern gets different values in the two synopses."""
        a = synopsis([from_sexpr("(A (B))")] * 20, self.CONFIG)
        b = synopsis([from_sexpr("(Y (Z))")] * 20, self.CONFIG)
        assert a.encoder.encode(("A", (("B", ()),))) != b.encoder.encode(
            ("A", (("B", ()),))
        )
        with pytest.raises(ConfigError, match="encoder"):
            a.merge(b)
        with pytest.raises(ConfigError, match="encoder"):
            CounterView([a, b])

    def test_shared_encoder_combines(self):
        a = synopsis([from_sexpr("(A (B))")] * 20, self.CONFIG)
        b = a.empty_like()
        b.update_batch([from_sexpr("(Y (Z))")] * 20)
        merged = a.merge(b)
        assert merged.encoder is a.encoder
        for query in ["(A (B))", "(Y (Z))"]:
            answer = CounterView([a, b]).estimate_ordered(query)
            assert answer == merged.estimate_ordered(query)
            assert answer == pytest.approx(20, abs=2)
